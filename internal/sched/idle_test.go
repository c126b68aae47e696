package sched

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// machine stands in for a job's machine: a Close that counts.
type machine struct{ closed atomic.Int32 }

func (m *machine) Close() error {
	m.closed.Add(1)
	return nil
}

// TestSchedulerIdleMachinesKeptTakenEvicted walks the idle-machine hand-over on a
// 100-key memory and scratch ledger: a kept machine is taken by the next
// job of its shape even when only its own room lets that job in, waits
// beside a job of another shape while both fit, is closed least recently
// kept first when a third shape needs the room, and is closed, not kept,
// when its job fails or its scratch outgrows the job's envelope.  Running
// plus idle never exceeds either budget, and Close leaves nothing.
func TestSchedulerIdleMachinesKeptTakenEvicted(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{MemKeys: 100, DiskKeys: 100, Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	within := func() {
		t.Helper()
		st := s.Stats()
		if s.Ledger().InUse() > 100 || st.MemInUse+st.IdleMem != s.Ledger().InUse() || st.DiskInUse+st.IdleDisk > 100 {
			t.Errorf("ledgers overdrawn: %+v (ledger %d)", st, s.Ledger().InUse())
		}
	}
	// run submits one job of shape and envelope; body sees the machine it
	// was handed and returns what to keep (nil keeps nothing) and its error.
	run := func(shape string, mem, disk int, body func(env Env) (*machine, int, error)) error {
		t.Helper()
		j, err := s.Submit(Request{Shape: shape, MemKeys: mem, DiskKeys: disk, Run: func(_ context.Context, env Env) error {
			within()
			m, keep, err := body(env)
			if m != nil {
				env.Keep(m, keep)
			}
			return err
		}})
		if err != nil {
			t.Fatal(err)
		}
		err = j.Wait(context.Background())
		within()
		return err
	}
	idle := func(id string) bool {
		_, err := os.Stat(filepath.Join(root, "idle-"+id))
		return err == nil
	}

	a := &machine{}
	if err := run("a", 60, 40, func(env Env) (*machine, int, error) {
		if env.Idle != nil {
			t.Error("the first job was handed a machine")
		}
		return a, 30, os.WriteFile(filepath.Join(env.Dir, "disk0000.bin"), nil, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Idle != 1 || st.IdleMem != 60 || st.IdleDisk != 30 || st.MemInUse != 0 || !idle("0001") {
		t.Fatalf("after the first job: %+v", st)
	}
	// 60 + 60 keys do not fit: only a's own room lets the second job in.
	if err := run("a", 60, 40, func(env Env) (*machine, int, error) {
		if env.Idle != a {
			t.Error("the second job of shape a did not take a")
		}
		_, err := os.Stat(filepath.Join(env.Dir, "disk0000.bin"))
		return a, 35, err
	}); err != nil {
		t.Fatal(err)
	}
	b := &machine{}
	if err := run("b", 30, 20, func(env Env) (*machine, int, error) {
		if env.Idle != nil {
			t.Error("a job of shape b took a")
		}
		return b, 10, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Idle != 2 || st.IdleMem != 90 || st.Reused != 1 || !idle("0002") || !idle("0003") {
		t.Fatalf("after three jobs: %+v", st)
	}
	// Shape c needs 30 keys beside 90 idle: a, kept first, is closed.
	if err := run("c", 30, 20, func(env Env) (*machine, int, error) {
		if a.closed.Load() != 1 || b.closed.Load() != 0 || idle("0002") || !idle("0003") {
			t.Error("admission did not close the least recently kept machine, and only it")
		}
		return nil, 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// A failed job closes the machine it took and offered.
	boom := errors.New("boom")
	if err := run("b", 30, 20, func(env Env) (*machine, int, error) {
		if env.Idle != b {
			t.Error("the second job of shape b did not take b")
		}
		return b, 10, boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Idle != 0 || b.closed.Load() != 1 {
		t.Fatalf("a failed job's machine was kept: %+v", st)
	}
	// Scratch beyond the job's disk envelope is not kept either.
	c := &machine{}
	if err := run("c", 30, 20, func(Env) (*machine, int, error) { return c, 21, nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Idle != 0 || c.closed.Load() != 1 {
		t.Fatalf("an oversized machine was kept: %+v", st)
	}
	d := &machine{}
	if err := run("d", 30, 20, func(Env) (*machine, int, error) { return d, 20, nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if entries, _ := os.ReadDir(root); len(entries) != 0 || d.closed.Load() != 1 {
		t.Fatalf("Close left %d entries and %d closes", len(entries), d.closed.Load())
	}
	if st := s.Stats(); st.Idle != 0 || st.MemInUse != 0 || s.Ledger().InUse() != 0 || st.DiskInUse != 0 {
		t.Fatalf("after Close: %+v", st)
	}
}
