package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	jr, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestJournalRecoveryRoundTrip drains a scheduler with one checkpointing
// job running and two queued, then rebuilds a second scheduler over the
// same journal and scratch tree: the running job must come back with its
// manifest and surviving scratch, the queued jobs must re-admit in their
// original FIFO order, and everything must then run to completion with
// terminal records in the log.
func TestJournalRecoveryRoundTrip(t *testing.T) {
	jdir := t.TempDir()
	sdir := t.TempDir()

	s, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	ckpted := make(chan struct{})
	manifest := []byte(`{"pass":1}`)
	run1 := func(ctx context.Context, env Env) error {
		if err := os.WriteFile(filepath.Join(env.Dir, "marker"), []byte("hello"), 0o644); err != nil {
			return err
		}
		first := true
		for {
			if err := env.Checkpoint(manifest); err != nil {
				return err
			}
			if first {
				close(ckpted)
				first = false
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	idle := func(ctx context.Context, env Env) error { return nil }
	j1, err := s.Submit(Request{Label: "one", MemKeys: 100, DiskKeys: 10, Run: run1})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(Request{Label: "two", MemKeys: 100, DiskKeys: 20, Spec: []byte(`{"x":2}`), Run: idle})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s.Submit(Request{Label: "three", MemKeys: 100, Run: idle})
	if err != nil {
		t.Fatal(err)
	}
	<-ckpted

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()
	if got := j1.State(); got != Suspended {
		t.Fatalf("running job after drain: %v, want Suspended", got)
	}
	if !errors.Is(j1.Err(), ErrDraining) {
		t.Fatalf("suspended job error: %v, want ErrDraining", j1.Err())
	}
	if j2.State() != Queued || j3.State() != Queued {
		t.Fatalf("queued jobs after drain: %v, %v, want Queued", j2.State(), j3.State())
	}
	if _, err := os.Stat(filepath.Join(sdir, "job-0001", "marker")); err != nil {
		t.Fatalf("suspended job scratch: %v", err)
	}

	// Second life over the same journal and scratch tree.
	s2, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovered()
	if len(rec) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(rec), rec)
	}
	wantIDs := []int{1, 2, 3}
	for i, r := range rec {
		if r.ID != wantIDs[i] {
			t.Fatalf("recovered order: %+v, want ids %v", rec, wantIDs)
		}
	}
	if !rec[0].WasRunning || !bytes.Equal(rec[0].Checkpoint, manifest) {
		t.Fatalf("recovered running job: %+v", rec[0])
	}
	if rec[1].WasRunning || rec[1].Label != "two" || rec[1].MemKeys != 100 ||
		rec[1].DiskKeys != 20 || string(rec[1].Spec) != `{"x":2}` {
		t.Fatalf("recovered queued job: %+v", rec[1])
	}
	if got := s2.Stats(); got.Recovered != 3 || got.PendingRecovered != 3 || got.OrphansSwept != 0 {
		t.Fatalf("recovery stats: %+v", got)
	}

	var mu sync.Mutex
	var order []int
	rerun := func(wantMarker bool) func(ctx context.Context, env Env) error {
		return func(ctx context.Context, env Env) error {
			mu.Lock()
			order = append(order, env.JobID)
			mu.Unlock()
			if wantMarker {
				if _, err := os.Stat(filepath.Join(env.Dir, "marker")); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var handles []*Job
	for i, r := range rec {
		h, err := s2.Submit(Request{
			ID: r.ID, Label: r.Label, MemKeys: r.MemKeys, DiskKeys: r.DiskKeys,
			Run: rerun(i == 0),
		})
		if err != nil {
			t.Fatalf("resubmit %d: %v", r.ID, err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		waitState(t, h, Done)
	}
	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	for i, id := range wantIDs {
		if got[i] != id {
			t.Fatalf("re-admission order %v, want %v", got, wantIDs)
		}
	}
	if got := s2.Stats(); got.PendingRecovered != 0 {
		t.Fatalf("pending after resubmit: %+v", got)
	}
	s2.Close()

	// All three jobs have terminal records: a third life recovers nothing.
	recs, _, err := journal.Replay(jdir)
	if err != nil {
		t.Fatal(err)
	}
	terminal := map[int]bool{}
	for _, r := range recs {
		if r.Type == journal.Terminal {
			terminal[r.Job] = true
		}
	}
	for _, id := range wantIDs {
		if !terminal[id] {
			t.Fatalf("job %d missing terminal record; log: %+v", id, recs)
		}
	}
}

// TestDrainTimeoutSuspends forces the drain deadline on a job that never
// checkpoints: it must come back Suspended (not Canceled or Failed) with
// its scratch directory intact and no terminal record in the journal.
func TestDrainTimeoutSuspends(t *testing.T) {
	jdir := t.TempDir()
	sdir := t.TempDir()
	s, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(Request{Label: "stubborn", MemKeys: 100, Run: func(ctx context.Context, env Env) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Running)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain: %v, want DeadlineExceeded", err)
	}
	if got := j.State(); got != Suspended {
		t.Fatalf("state after forced drain: %v, want Suspended", got)
	}
	if _, err := os.Stat(filepath.Join(sdir, "job-0001")); err != nil {
		t.Fatalf("scratch after forced drain: %v", err)
	}
	recs, _, err := journal.Replay(jdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == journal.Terminal {
			t.Fatalf("suspended job has terminal record: %+v", r)
		}
	}
}

// TestOrphanSweep checks startup scratch hygiene: directories with no
// live journal entry are removed, claimed ones and foreign files are
// kept, and without a journal every job directory is an orphan.
func TestOrphanSweep(t *testing.T) {
	jdir := t.TempDir()
	sdir := t.TempDir()
	for _, d := range []string{"job-0001", "job-0002", "notajob"} {
		if err := os.MkdirAll(filepath.Join(sdir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Job 1 finished; job 2 is still live.
	jr := openJournal(t, jdir)
	if _, err := jr.Append(journal.Submitted, 1, []byte(`{"memKeys":10,"diskKeys":0}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := jr.Append(journal.Submitted, 2, []byte(`{"memKeys":10,"diskKeys":0}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := jr.Append(journal.Terminal, 1, []byte(`{"state":"done"}`)); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sdir, "job-0001")); !os.IsNotExist(err) {
		t.Fatalf("terminal job's scratch not swept: %v", err)
	}
	if _, err := os.Stat(filepath.Join(sdir, "job-0002")); err != nil {
		t.Fatalf("live job's scratch swept: %v", err)
	}
	if _, err := os.Stat(filepath.Join(sdir, "notajob")); err != nil {
		t.Fatalf("foreign directory removed: %v", err)
	}
	if got := s.Stats(); got.OrphansSwept != 1 || got.Recovered != 1 {
		t.Fatalf("sweep stats: %+v", got)
	}
	s.Close()

	// Without a journal nothing is live, so both job dirs would be swept.
	sdir2 := t.TempDir()
	for _, d := range []string{"job-0003", "job-0004"} {
		if err := os.MkdirAll(filepath.Join(sdir2, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := New(Config{MemKeys: 100, Dir: sdir2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(); got.OrphansSwept != 2 {
		t.Fatalf("unjournaled sweep stats: %+v", got)
	}
}

// TestDropRecovered retires a recovered job: terminal record written,
// scratch removed, and it is not recovered a third time.
func TestDropRecovered(t *testing.T) {
	jdir := t.TempDir()
	sdir := t.TempDir()
	jr := openJournal(t, jdir)
	if _, err := jr.Append(journal.Submitted, 1, []byte(`{"memKeys":10,"diskKeys":0}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := jr.Append(journal.Admitted, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(sdir, "job-0001"), 0o755); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Recovered(); len(got) != 1 || !got[0].WasRunning {
		t.Fatalf("recovered: %+v", got)
	}
	if !s.DropRecovered(1, errors.New("spec no longer parses")) {
		t.Fatal("DropRecovered(1) = false")
	}
	if s.DropRecovered(1, nil) {
		t.Fatal("second DropRecovered(1) = true")
	}
	if _, err := os.Stat(filepath.Join(sdir, "job-0001")); !os.IsNotExist(err) {
		t.Fatalf("dropped job's scratch kept: %v", err)
	}
	s.Close()

	s2, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Recovered(); len(got) != 0 {
		t.Fatalf("dropped job recovered again: %+v", got)
	}
}

// TestCompactionPreservesLive shrinks the journal mid-flight (tiny
// CompactBytes makes every checkpoint and terminal append compact) and
// then drains: the queued job and the suspended job must still be
// recoverable from the compacted log.
func TestCompactionPreservesLive(t *testing.T) {
	jdir := t.TempDir()
	sdir := t.TempDir()
	s, err := New(Config{MemKeys: 100, Dir: sdir,
		Journal: openJournal(t, jdir), CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ckpts := make(chan struct{}, 64)
	runner := func(ctx context.Context, env Env) error {
		for i := 0; ; i++ {
			if err := env.Checkpoint([]byte(`{"pass":1}`)); err != nil {
				return err
			}
			select {
			case ckpts <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	idle := func(ctx context.Context, env Env) error { return nil }
	if _, err := s.Submit(Request{Label: "runner", MemKeys: 100, Run: runner}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Label: "queued", MemKeys: 100, Run: idle}); err != nil {
		t.Fatal(err)
	}
	// Let several checkpoint-triggered compactions happen.
	for i := 0; i < 5; i++ {
		<-ckpts
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s2, err := New(Config{MemKeys: 100, Dir: sdir, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec) != 2 || rec[0].ID != 1 || rec[1].ID != 2 {
		t.Fatalf("recovered after compaction: %+v", rec)
	}
	if !rec[0].WasRunning || len(rec[0].Checkpoint) == 0 {
		t.Fatalf("compaction lost the running job's manifest: %+v", rec[0])
	}
	if rec[1].WasRunning {
		t.Fatalf("queued job marked running: %+v", rec[1])
	}
}

// bytesInput is a Request.Input that writes b.
func bytesInput(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// readInput reads a recovered job's input back through ReadInput.
func readInput(r RecoveredJob) ([]byte, error) {
	var got []byte
	err := r.ReadInput(func(rd io.Reader, size int64) (err error) {
		got = make([]byte, size)
		_, err = io.ReadFull(rd, got)
		return err
	})
	return got, err
}

// journalFiles lists the journal directory's input files.
func journalFiles(t *testing.T, jdir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(jdir, "input-*.page"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSubmitInputDoesNotStallReaders parks a Submit inside its input writer
// and demands the scheduler stays live around it: other jobs' handles and
// Stats answer, a later submission overtakes it, is admitted and finishes —
// nothing input-sized is written under the scheduler's locks.
func TestSubmitInputDoesNotStallReaders(t *testing.T) {
	jdir := t.TempDir()
	s, err := New(Config{MemKeys: 100, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	idle := func(ctx context.Context, env Env) error { return nil }
	first, err := s.Submit(Request{Label: "first", MemKeys: 10, Input: bytesInput([]byte("abc")), Run: idle})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, Done)

	inWriter, release := make(chan struct{}), make(chan struct{})
	type result struct {
		j   *Job
		err error
	}
	slow := make(chan result, 1)
	go func() {
		j, err := s.Submit(Request{Label: "slow", MemKeys: 10, Run: idle,
			Input: func(w io.Writer) error {
				close(inWriter)
				<-release
				_, err := w.Write([]byte("late"))
				return err
			}})
		slow <- result{j, err}
	}()
	<-inWriter

	answered := make(chan struct{})
	go func() {
		defer close(answered)
		if j, ok := s.Job(first.ID()); !ok || j.State() != Done {
			t.Errorf("Job(%d) while a Submit is in flight: %v, %v", first.ID(), j, ok)
		}
		if st := s.Stats(); st.Completed != 1 {
			t.Errorf("Stats while a Submit is in flight: %+v", st)
		}
		over, err := s.Submit(Request{Label: "overtaker", MemKeys: 10, Input: bytesInput([]byte("xyz")), Run: idle})
		if err != nil {
			t.Errorf("Submit while another is in flight: %v", err)
			return
		}
		<-over.Done()
		if over.State() != Done {
			t.Errorf("overtaker: %v, %v", over.State(), over.Err())
		}
	}()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("the scheduler stalled behind a Submit that is writing its input")
	}
	close(release)
	r := <-slow
	if r.err != nil {
		t.Fatal(r.err)
	}
	waitState(t, r.j, Done)
	if left := journalFiles(t, jdir); len(left) != 0 {
		t.Fatalf("input files outlived their jobs: %v", left)
	}
	if st := s.Stats(); st.JournalInputBytes != 0 || st.Completed != 3 {
		t.Fatalf("stats after all three finished: %+v", st)
	}
}

// TestInputFileLifecycle walks one journaled input through the orderings
// the design relies on: the file exists (and is counted) from before the
// Submitted record until after the Terminal one, a drain keeps it,
// compaction keeps its reference valid, recovery reads back the bytes
// written, and a failed writer leaves neither file nor record.
func TestInputFileLifecycle(t *testing.T) {
	jdir := t.TempDir()
	// CompactBytes 1: every checkpoint and terminal append compacts.
	s, err := New(Config{MemKeys: 100, Journal: openJournal(t, jdir), CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := make(chan struct{}, 1)
	runner := func(ctx context.Context, env Env) error {
		for {
			if err := env.Checkpoint([]byte(`{"pass":1}`)); err != nil {
				return err
			}
			select {
			case ckpt <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	idle := func(ctx context.Context, env Env) error { return nil }
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // spans bufio's buffer
	if _, err := s.Submit(Request{Label: "runner", MemKeys: 100, Input: bytesInput([]byte("r")), Run: runner}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Label: "queued", MemKeys: 100, Spec: []byte(`{"x":1}`), Input: bytesInput(payload), Run: idle}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := s.Submit(Request{Label: "bad", MemKeys: 100, Run: idle,
		Input: func(w io.Writer) error { w.Write([]byte("partial")); return boom }}); !errors.Is(err, boom) {
		t.Fatalf("Submit with a failing input writer: %v, want boom", err)
	}
	if got := journalFiles(t, jdir); len(got) != 2 {
		t.Fatalf("input files after two good submits and a failed one: %v", got)
	}
	if st := s.Stats(); st.JournalInputBytes != int64(1+len(payload)) || st.Queued != 1 {
		t.Fatalf("stats: %+v", st)
	}
	for i := 0; i < 3; i++ { // several compactions with the reference live
		<-ckpt
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := journalFiles(t, jdir); len(got) != 2 {
		t.Fatalf("drain did not keep the input files: %v", got)
	}

	s2, err := New(Config{MemKeys: 100, Journal: openJournal(t, jdir), CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec) != 2 || rec[1].Label != "queued" || string(rec[1].Spec) != `{"x":1}` ||
		rec[1].Input != filepath.Join(jdir, "input-0002.page") {
		t.Fatalf("recovered: %+v", rec)
	}
	if got, err := readInput(rec[1]); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("recovered input: %d bytes, %v", len(got), err)
	}
	if st := s2.Stats(); st.JournalInputBytes != int64(1+len(payload)) || st.OrphansSwept != 0 {
		t.Fatalf("life-2 stats: %+v", st)
	}
	// One job reruns, the other is retired: both paths remove the file only
	// after the terminal record.
	h, err := s2.Submit(Request{ID: rec[1].ID, Label: rec[1].Label, MemKeys: 100, Run: idle})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h, Done)
	if !s2.DropRecovered(rec[0].ID, errors.New("retired")) {
		t.Fatal("DropRecovered = false")
	}
	if got := journalFiles(t, jdir); len(got) != 0 {
		t.Fatalf("input files outlived their terminal records: %v", got)
	}
	if st := s2.Stats(); st.JournalInputBytes != 0 {
		t.Fatalf("gauge after both retired: %+v", st)
	}
}

// TestInputCrashWindows builds, by hand, the three on-disk states a crash
// can leave around an input file, and checks what the next life makes of
// each: a file with no Submitted record (crash between the file's fsync and
// the record's) and a file whose job already has its Terminal record (crash
// before the unlink) are swept and counted; a live record whose file is
// missing, a byte short, or one bit off fails ReadInput with the file named
// — and none of that disturbs the healthy job beside them.
func TestInputCrashWindows(t *testing.T) {
	jdir := t.TempDir()
	s, err := New(Config{MemKeys: 100, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	// The blocker holds the budget, so jobs 2..5 stay queued with live
	// records and files; the drain then parks everything.
	started := make(chan struct{})
	blocker := func(ctx context.Context, env Env) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}
	idle := func(ctx context.Context, env Env) error { return nil }
	body := []byte("the quick brown fox jumps over the lazy dog")
	if _, err := s.Submit(Request{Label: "blocker", MemKeys: 100, Input: bytesInput(body), Run: blocker}); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"healthy", "missing", "short", "flipped"} {
		if _, err := s.Submit(Request{Label: label, MemKeys: 100, Input: bytesInput(body), Run: idle}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx) // the blocker never checkpoints: forced, suspended

	path := func(id int) string { return filepath.Join(jdir, fmt.Sprintf("input-%04d.page", id)) }
	if err := os.Remove(path(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path(4), int64(len(body)-1)); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(body)
	flipped[7] ^= 0x10
	if err := os.WriteFile(path(5), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	// (a) a file no record names; (c) the blocker's file, kept by the drain,
	// once its job has a terminal record.
	if err := os.WriteFile(path(9), body, 0o644); err != nil {
		t.Fatal(err)
	}
	jr := openJournal(t, jdir)
	if _, err := jr.Append(journal.Terminal, 1, []byte(`{"state":"canceled"}`)); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	s2, err := New(Config{MemKeys: 100, Journal: openJournal(t, jdir)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.OrphansSwept != 2 || st.Recovered != 4 {
		t.Fatalf("stats: %+v, want 2 orphans swept and 4 recovered", st)
	}
	for _, id := range []int{1, 9} {
		if _, err := os.Stat(path(id)); !os.IsNotExist(err) {
			t.Errorf("orphan %s not swept: %v", path(id), err)
		}
	}
	for _, r := range s2.Recovered() {
		got, err := readInput(r)
		switch r.Label {
		case "healthy":
			if err != nil || !bytes.Equal(got, body) {
				t.Errorf("healthy: %q, %v", got, err)
			}
		default:
			if err == nil || !strings.Contains(err.Error(), filepath.Base(r.Input)) {
				t.Errorf("%s: ReadInput error %v, want one naming %s", r.Label, err, r.Input)
			}
		}
	}
}
