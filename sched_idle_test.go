package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/pdm"
	"repro/internal/workload"
)

// A file-backed scheduler keeps a finished job's machine idle for the next
// job of its geometry.  These tests hold that reuse invisible — a job on a
// taken machine reports exactly what it would on a new one — and hold the
// idle machines inside the budgets and the scratch directory.

// idleSpecs are A (M = 1 Ki on file disks), B (on mmap disks) and A′ (A's
// spec again), then a records job and a top-K scenario of A's geometry.
// Each job of A's geometry has a disk envelope at least the scratch the
// machine's earlier jobs left, so each can take the machine.
func idleSpecs() []JobSpec {
	const m = schedJobMem
	a := JobSpec{Keys: workload.Uniform(16*m, -1<<40, 1<<40, 21), Alg: ThreePassLMM, KeepKeys: true, Label: "A"}
	b := JobSpec{Keys: workload.Perm(24*m, 22), Backend: BackendMmap, Alg: ThreePassMesh, KeepKeys: true, Label: "B"}
	rec := JobSpec{Keys: workload.ZipfSkewed(24*m, 1.3, 500, 23), Alg: ThreePassLMM, KeepKeys: true, Label: "records"}
	rec.Payloads = make([][]byte, len(rec.Keys))
	for i := range rec.Payloads {
		rec.Payloads[i] = []byte{byte(i), byte(i >> 8), byte(i % 7)}
	}
	topk := JobSpec{Workload: &WorkloadSpec{Kind: "uniform", N: 32 * m, Seed: 24}, Scenario: "topk", TopK: 50, Label: "topk"}
	return []JobSpec{a, b, a, rec, topk}
}

// idleConfig is a file-backed scheduler with room for every job at once.
func idleConfig(dir string) SchedulerConfig {
	return SchedulerConfig{
		Memory: 64 * schedEnvelope, Workers: 2, JobMemory: schedJobMem, Dir: dir,
		Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2},
	}
}

// runSpec submits spec (with private copies of its inline input) and waits
// for it to finish Done.
func runSpec(t *testing.T, s *Scheduler, spec JobSpec) JobStatus {
	t.Helper()
	spec.Keys = slices.Clone(spec.Keys)
	spec.Payloads = slices.Clone(spec.Payloads)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Label, err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil || st.State != JobDone {
		t.Fatalf("%s: %v, state %s, error %q", spec.Label, err, st.State, st.Error)
	}
	return st
}

// TestSchedulerIdleMachineReuseInvisible runs A, B and A′ and two more jobs
// of A's geometry on one scheduler: A′, the records job and the scenario
// take A's machine (the same disk files, renamed into each job's
// directory), B on another backend does not, and every job's output, report,
// pdm counts, footprint and arena match the same job on a scheduler of its
// own.
func TestSchedulerIdleMachineReuseInvisible(t *testing.T) {
	specs := idleSpecs()
	dir := t.TempDir()
	s, err := NewScheduler(idleConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	diskOf := func(id int) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("idle-%04d", id), "disk0000.bin"))
		if err != nil {
			t.Fatalf("job %d left no idle machine: %v", id, err)
		}
		return fi
	}
	var first os.FileInfo
	for i, spec := range specs {
		got := runSpec(t, s, spec)
		switch disk := diskOf(got.ID); i {
		case 0:
			first = disk
		case 1:
			if os.SameFile(first, disk) {
				t.Fatal("B, on another backend, ran on A's machine")
			}
		default:
			if !os.SameFile(first, disk) {
				t.Fatalf("%s did not run on A's machine", spec.Label)
			}
		}

		fresh, err := NewScheduler(idleConfig(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		want := runSpec(t, fresh, spec)
		if rep, wrep := *got.Report, *want.Report; rep.Passes != wrep.Passes || rep.ReadPasses != wrep.ReadPasses ||
			rep.WritePasses != wrep.WritePasses || rep.FellBack != wrep.FellBack || rep.PaddedN != wrep.PaddedN ||
			rep.Algorithm != wrep.Algorithm || rep.Scenario != wrep.Scenario || rep.ScenarioRoute != wrep.ScenarioRoute ||
			normalizeStats(rep.IO) != normalizeStats(wrep.IO) {
			t.Errorf("%s: report on a reused machine differs:\nreused %+v\nfresh  %+v", spec.Label, rep, wrep)
		}
		if got.DiskFootprint != want.DiskFootprint || got.ArenaLeak != 0 || want.ArenaLeak != 0 {
			t.Errorf("%s: footprint %d, leak %d; fresh %d, %d", spec.Label,
				got.DiskFootprint, got.ArenaLeak, want.DiskFootprint, want.ArenaLeak)
		}
		if spec.Scenario != "" {
			res, _ := s.ScenarioResult(got.ID)
			wres, _ := fresh.ScenarioResult(want.ID)
			if !slices.Equal(res.Keys, wres.Keys) {
				t.Errorf("%s: result differs on a reused machine", spec.Label)
			}
		} else if spec.Payloads != nil {
			keys, pays, _ := s.SortedRecords(got.ID)
			wkeys, wpays, _ := fresh.SortedRecords(want.ID)
			if !slices.Equal(keys, wkeys) || !slices.EqualFunc(pays, wpays, slices.Equal) {
				t.Errorf("%s: records differ on a reused machine", spec.Label)
			}
		} else {
			keys, _ := s.SortedKeys(got.ID)
			wkeys, _ := fresh.SortedKeys(want.ID)
			if !slices.Equal(keys, wkeys) {
				t.Errorf("%s: output differs on a reused machine", spec.Label)
			}
		}
		fresh.Close()
	}
	if st := s.Stats(); st.Reused != 3 || st.Idle != 2 {
		t.Fatalf("%d jobs took an idle machine and %d are idle, want 3 and 2", st.Reused, st.Idle)
	}
}

// TestArrayResetRunsLikeNew sorts on a file machine after another sort and
// a Reset: the trace, the statistics, the footprint and the arena's peaks
// are a new machine's.
func TestArrayResetRunsLikeNew(t *testing.T) {
	cfg := MachineConfig{Memory: schedJobMem, Workers: 2, Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}}
	keys := workload.Uniform(16*schedJobMem, 0, 1<<40, 31)
	run := func(m *Machine) ([]int64, *Report, []pdm.TraceOp) {
		m.Array().EnableTrace()
		out := slices.Clone(keys)
		rep, err := m.Sort(out, ThreePassLMM)
		if err != nil {
			t.Fatal(err)
		}
		return out, rep, m.Array().Trace()
	}
	newMachine := func() *Machine {
		c := cfg
		c.Dir = t.TempDir()
		m, err := NewMachine(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	used := newMachine()
	if _, err := used.Sort(workload.Perm(32*schedJobMem, 32), ThreePassMesh); err != nil {
		t.Fatal(err)
	}
	used.Array().Reset()
	out, rep, trace := run(used)
	fresh := newMachine()
	wout, wrep, wtrace := run(fresh)
	if !slices.Equal(out, wout) || !pdm.TracesEqual(trace, wtrace) {
		t.Fatal("a reset machine's output or trace differs from a new one's")
	}
	ua, fa := used.Array(), fresh.Array()
	if normalizeStats(rep.IO) != normalizeStats(wrep.IO) || normalizeStats(ua.Stats()) != normalizeStats(fa.Stats()) {
		t.Fatalf("statistics differ:\nreset %+v\nnew   %+v", ua.Stats(), fa.Stats())
	}
	if ua.DiskFootprint() != fa.DiskFootprint() || ua.Arena().Peak() != fa.Arena().Peak() ||
		!slices.Equal(ua.Arena().PhasePeaks(), fa.Arena().PhasePeaks()) {
		t.Fatalf("footprint %d, arena peak %d %v; new machine %d, %d %v", ua.DiskFootprint(), ua.Arena().Peak(),
			ua.Arena().PhasePeaks(), fa.DiskFootprint(), fa.Arena().Peak(), fa.Arena().PhasePeaks())
	}
}

// TestSchedulerIdleMachinesWithinBudgets gives the scheduler room for one
// job, in memory and then in scratch, and runs A and then B of another
// geometry: A's machine stays idle until B is admitted, and is closed,
// its directory gone, before B runs.  Running plus idle never exceeds
// either budget, and Close leaves the directory empty.
func TestSchedulerIdleMachinesWithinBudgets(t *testing.T) {
	a := JobSpec{Keys: workload.Uniform(16*schedJobMem, 0, 1<<40, 41), Alg: ThreePassLMM, Label: "A"}
	b := a
	b.BlockLatencyUS, b.Label = 500, "B" // another geometry: B cannot take A's machine
	for _, tc := range []struct {
		name string
		cfg  func(cfg *SchedulerConfig, disk int)
	}{
		{"memory", func(cfg *SchedulerConfig, _ int) { cfg.Memory = 6 * schedEnvelope / 5 }},
		{"disk", func(cfg *SchedulerConfig, disk int) { cfg.DiskBudget = disk }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durabilityConfig(dir, "")
			cfg.Memory = 8 * schedEnvelope
			probe, err := NewScheduler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := probe.resolveJobSpec(a)
			probe.Close()
			if err != nil {
				t.Fatal(err)
			}
			tc.cfg(&cfg, r.disk)
			s, err := NewScheduler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			within := func(when string) {
				t.Helper()
				st := s.Stats()
				if st.MemInUse+st.IdleMem > st.MemCapacity || st.DiskInUse+st.IdleDisk > st.DiskCapacity {
					t.Fatalf("%s: running %d + idle %d keys of memory (of %d), %d + %d of scratch (of %d)", when,
						st.MemInUse, st.IdleMem, st.MemCapacity, st.DiskInUse, st.IdleDisk, st.DiskCapacity)
				}
			}
			idleA := filepath.Join(dir, "idle-0001")
			runSpec(t, s, a)
			within("after A")
			if _, err := os.Stat(idleA); err != nil || s.Stats().Idle != 1 {
				t.Fatalf("A's machine is not idle: %v, stats %+v", err, s.Stats())
			}
			id, err := s.Submit(b)
			if err != nil {
				t.Fatal(err)
			}
			for st, _ := s.Status(id); st.State != JobRunning; st, _ = s.Status(id) {
				if st.State != JobQueued {
					t.Fatalf("B ended %s before it was seen running: %s", st.State, st.Error)
				}
				time.Sleep(100 * time.Microsecond)
			}
			within("while B runs")
			if _, err := os.Stat(idleA); !os.IsNotExist(err) {
				t.Fatalf("A's idle directory survived B's admission: %v", err)
			}
			if st := s.Stats(); st.Idle != 0 || st.Reused != 0 {
				t.Fatalf("while B runs: %d idle, %d reused, want none", st.Idle, st.Reused)
			}
			if st, err := s.Wait(context.Background(), id); err != nil || st.State != JobDone {
				t.Fatalf("B: %v %s %s", err, st.State, st.Error)
			}
			within("after B")
			s.Close()
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Fatalf("Close left %d entries in the scratch directory (%v)", len(entries), err)
			}
		})
	}
}

// TestSchedulerSweepsIdleDirectories drops a scheduler with an idle machine
// without closing it: the next NewScheduler over the same Dir removes the
// idle directory as an orphan.
func TestSchedulerSweepsIdleDirectories(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewScheduler(idleConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	runSpec(t, s1, idleSpecs()[0])
	idle := filepath.Join(dir, "idle-0001")
	if _, err := os.Stat(idle); err != nil {
		t.Fatalf("no idle directory: %v", err)
	}
	s2, err := NewScheduler(idleConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(idle); !os.IsNotExist(err) {
		t.Fatalf("NewScheduler left the dropped scheduler's idle directory: %v", err)
	}
	if st := s2.Stats(); st.OrphansSwept != 1 {
		t.Fatalf("%d orphans swept, want 1", st.OrphansSwept)
	}
}
