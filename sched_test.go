package repro

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// The scheduler must be invisible to every job's result: a job running
// among many others — sharing one worker limiter, one memory ledger, one
// disk budget — produces output, pass counts, and I/O statistics
// bit-identical to the same job run alone on a dedicated Machine.  (The
// scheduling-dependent observability counters are excluded, exactly as in
// determinism_test.go.)  These tests run under -race in CI.

const schedJobMem = 1024

// schedEnvelope is the memory the scheduler reserves for one schedJobMem
// job at the tests' pipeline depth 2/2.  The budgets below are stated as
// multiples of it.
var schedEnvelope = jobEnvelope(schedJobMem)

// jobEnvelope is the memory the scheduler reserves for one job of M = mem
// at the tests' pipeline depth 2/2: its array's ArenaCapacity().
func jobEnvelope(mem int) int {
	pcfg, _, err := resolveConfig(MachineConfig{Memory: mem, Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		panic(err)
	}
	return pcfg.ArenaCapacity()
}

// schedCase is one job: an algorithm (or radix universe) plus an input.
type schedCase struct {
	name     string
	alg      Algorithm
	universe int64
	keys     []int64
}

func schedCases() []schedCase {
	const m = schedJobMem
	return []schedCase{
		{name: "mesh3/perm", alg: ThreePassMesh, keys: workload.Perm(16*m, 1)},
		{name: "lmm3/uniform", alg: ThreePassLMM, keys: workload.Uniform(32*m-257, -1<<40, 1<<40, 2)},
		{name: "exp2/sortedruns", alg: TwoPassExpected, keys: workload.SortedRuns(8*m, 512, 3)},
		{name: "exp3/zipf", alg: ThreePassExpected, keys: workload.ZipfSkewed(16*m, 1.3, 700, 4)},
		{name: "seven/perm", alg: SevenPass, keys: workload.Perm(16*m-100, 5)},
		{name: "six/uniform", alg: SixPassExpected, keys: workload.Uniform(16*m, -1<<30, 1<<30, 6)},
		{name: "mesh2e/sortedruns", alg: TwoPassMeshExpected, keys: workload.SortedRuns(8*m, 256, 7)},
		{name: "sevenmesh/zipf", alg: SevenPassMesh, keys: workload.ZipfSkewed(16*m, 1.5, 4000, 8)},
		{name: "auto/nearlysorted", alg: Auto, keys: workload.NearlySorted(16*m, 64, 9)},
		{name: "radix/uniform", alg: "radix", universe: 1 << 20, keys: workload.Uniform(9000, 0, (1<<20)-1, 10)},
		{name: "radix/zipf", alg: "radix", universe: 1 << 20, keys: workload.Zipf(16*m, 1.2, (1<<20)-1, 11)},
	}
}

// soloRun sorts a private copy of the case on a dedicated machine with the
// same geometry the scheduler gives its jobs.
func soloRun(t *testing.T, tc schedCase) ([]int64, *Report) {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Memory:   schedJobMem,
		Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2},
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys := append([]int64(nil), tc.keys...)
	var rep *Report
	if tc.universe > 0 {
		rep, err = m.SortInts(keys, tc.universe)
	} else {
		rep, err = m.Sort(keys, tc.alg)
	}
	if err != nil {
		t.Fatalf("%s solo: %v", tc.name, err)
	}
	return keys, rep
}

// TestSchedulerBitIdenticalConcurrent drives all eleven mixed jobs through
// one scheduler concurrently — the memory budget admits only a few at a
// time, so the run exercises queueing, shared-limiter compute, and
// concurrent per-job arenas — and demands bit-identical results.
func TestSchedulerBitIdenticalConcurrent(t *testing.T) {
	cases := schedCases()
	solo := make(map[string]struct {
		keys []int64
		rep  *Report
	}, len(cases))
	for _, tc := range cases {
		keys, rep := soloRun(t, tc)
		solo[tc.name] = struct {
			keys []int64
			rep  *Report
		}{keys, rep}
	}

	s, err := NewScheduler(SchedulerConfig{
		Memory:    33 * schedEnvelope / 10, // roughly three job envelopes: real contention
		Workers:   4,
		JobMemory: schedJobMem,
		Pipeline:  PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make(map[string]int, len(cases))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, tc := range cases {
		tc := tc
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := s.Submit(JobSpec{
				Keys:     append([]int64(nil), tc.keys...),
				Alg:      tc.alg,
				Universe: tc.universe,
				KeepKeys: true,
				Label:    tc.name,
			})
			if err != nil {
				t.Errorf("%s: submit: %v", tc.name, err)
				return
			}
			mu.Lock()
			ids[tc.name] = id
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, tc := range cases {
		id := ids[tc.name]
		st, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: wait: %v", tc.name, err)
		}
		if st.State != JobDone {
			t.Fatalf("%s: state %s, error %q", tc.name, st.State, st.Error)
		}
		want := solo[tc.name]
		got, err := s.SortedKeys(id)
		if err != nil {
			t.Fatalf("%s: keys: %v", tc.name, err)
		}
		if !slices.Equal(got, want.keys) {
			t.Errorf("%s: scheduled output differs from the dedicated machine", tc.name)
		}
		rep := st.Report
		if rep == nil {
			t.Fatalf("%s: no report", tc.name)
		}
		if rep.Passes != want.rep.Passes ||
			rep.ReadPasses != want.rep.ReadPasses ||
			rep.WritePasses != want.rep.WritePasses ||
			rep.FellBack != want.rep.FellBack ||
			rep.PaddedN != want.rep.PaddedN ||
			rep.Algorithm != want.rep.Algorithm {
			t.Errorf("%s: report differs: scheduled %+v, solo %+v", tc.name, rep, want.rep)
		}
		if normalizeStats(rep.IO) != normalizeStats(want.rep.IO) {
			t.Errorf("%s: I/O stats differ:\nscheduled %+v\nsolo      %+v",
				tc.name, normalizeStats(rep.IO), normalizeStats(want.rep.IO))
		}
		if st.ArenaLeak != 0 {
			t.Errorf("%s: job leaked %d arena keys", tc.name, st.ArenaLeak)
		}
		if st.DiskFootprint > st.DiskReserved {
			t.Errorf("%s: disk footprint %d exceeds the admitted envelope %d",
				tc.name, st.DiskFootprint, st.DiskReserved)
		}
	}
	if st := s.Stats(); st.MemInUse != 0 || st.DiskInUse != 0 || st.Completed != len(cases) {
		t.Fatalf("scheduler stats after drain: %+v", st)
	}
}

// TestSchedulerCancelReleasesEnvelope cancels a running latency-slowed job
// and checks that it aborts promptly, drains its arena, and releases its
// whole envelope so the queued job behind it runs.
func TestSchedulerCancelReleasesEnvelope(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{
		Memory:    6 * schedEnvelope / 5, // one job envelope: the second job must queue
		Workers:   2,
		JobMemory: schedJobMem,
		Pipeline:  PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	slow, err := s.Submit(JobSpec{
		Workload:       &WorkloadSpec{Kind: "perm", N: 16 * schedJobMem, Seed: 1},
		Alg:            ThreePassLMM,
		BlockLatencyUS: 500,
		Label:          "slow",
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{
		Workload: &WorkloadSpec{Kind: "sortedruns", N: 8 * schedJobMem, Seed: 2},
		Alg:      TwoPassExpected,
		KeepKeys: true,
		Label:    "queued",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the slow job is actually running, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Status(slow)
		if !ok {
			t.Fatal("slow job vanished")
		}
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	canceledAt := time.Now()
	if !s.Cancel(slow) {
		t.Fatal("cancel did not find the job")
	}
	st, err := s.Wait(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(canceledAt); waited > 5*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
	if st.State != JobCanceled {
		t.Fatalf("canceled job state = %s (error %q)", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Fatalf("canceled job error = %q", st.Error)
	}
	if st.ArenaLeak != 0 {
		t.Fatalf("canceled job left %d keys in its arena", st.ArenaLeak)
	}

	// The queued job must now be admitted and complete correctly.
	qst, err := s.Wait(context.Background(), queued)
	if err != nil {
		t.Fatal(err)
	}
	if qst.State != JobDone {
		t.Fatalf("queued job state = %s, error %q", qst.State, qst.Error)
	}
	keys, err := s.SortedKeys(queued)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(keys) {
		t.Fatal("queued job output not sorted")
	}
	if stats := s.Stats(); stats.MemInUse != 0 || stats.DiskInUse != 0 ||
		stats.Canceled != 1 || stats.Completed != 1 {
		t.Fatalf("scheduler stats after cancel: %+v", stats)
	}
}

// TestSchedulerThroughputMixed is the service-realistic storm: a batch of
// workload-generated jobs (Zipf hot-key skew and pre-sorted runs among
// them) across algorithms, squeezed through a small budget so most of the
// batch queues.  Every output must come back sorted with the advertised
// pass count, and the aggregate stats must balance.
func TestSchedulerThroughputMixed(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{
		Memory:    12 * schedEnvelope / 5, // two envelopes
		Workers:   4,
		JobMemory: schedJobMem,
		Pipeline:  PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	specs := []JobSpec{
		{Workload: &WorkloadSpec{Kind: "zipf", N: 16 * schedJobMem, Seed: 1, S: 1.2, Distinct: 900}, Alg: ThreePassLMM},
		{Workload: &WorkloadSpec{Kind: "sortedruns", N: 16 * schedJobMem, Seed: 2, RunLen: 1024}, Alg: ThreePassMesh},
		{Workload: &WorkloadSpec{Kind: "zipf", N: 8 * schedJobMem, Seed: 3, S: 2.0}, Alg: TwoPassExpected},
		{Workload: &WorkloadSpec{Kind: "sortedruns", N: 16 * schedJobMem, Seed: 4}, Alg: SevenPass},
		{Workload: &WorkloadSpec{Kind: "uniform", N: 16 * schedJobMem, Seed: 5}, Alg: SixPassExpected},
		{Workload: &WorkloadSpec{Kind: "perm", N: 16 * schedJobMem, Seed: 6}, Alg: Auto},
		{Workload: &WorkloadSpec{Kind: "organ", N: 8 * schedJobMem, Seed: 7}, Alg: TwoPassMeshExpected},
		{Workload: &WorkloadSpec{Kind: "fewdistinct", N: 16 * schedJobMem, Seed: 8, Distinct: 40}, Alg: ThreePassExpected},
	}
	// The three-pass family has exact bounds; the superrun-recursive
	// family costs more than its headline bound at these small N/M ratios
	// (SevenPass measures 10 and ExpectedSixPass 9 passes at N = 16M) and
	// the expected-pass algorithms may detect cleanup overflow on these
	// structured inputs and fall back, paying their partial attempt plus
	// the deterministic pass count — deterministically in either case.
	maxPasses := []float64{3, 3, 6, 10, 9, 3, 6, 14}
	ids := make([]int, len(specs))
	for i, spec := range specs {
		spec.KeepKeys = true
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	var keysSorted int64
	for i, id := range ids {
		st, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Fatalf("job %d state = %s, error %q", i, st.State, st.Error)
		}
		keys, err := s.SortedKeys(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(keys) || len(keys) != specs[i].Workload.N {
			t.Fatalf("job %d output wrong (%d keys)", i, len(keys))
		}
		if st.Report.Passes > maxPasses[i]+1e-9 {
			t.Fatalf("job %d took %.3f passes, bound %v", i, st.Report.Passes, maxPasses[i])
		}
		if st.DiskFootprint > st.DiskReserved {
			t.Fatalf("job %d disk footprint %d > envelope %d", i, st.DiskFootprint, st.DiskReserved)
		}
		keysSorted += int64(st.N)
	}
	stats := s.Stats()
	if stats.Completed != len(specs) || stats.KeysSorted != keysSorted {
		t.Fatalf("aggregate stats: %+v (want %d jobs, %d keys)", stats, len(specs), keysSorted)
	}
	if stats.JobsPerSecond <= 0 || stats.PassesWeighted <= 0 {
		t.Fatalf("throughput stats empty: %+v", stats)
	}
	if stats.MemInUse != 0 || stats.DiskInUse != 0 {
		t.Fatalf("budgets not drained: %+v", stats)
	}
}

func TestSchedulerSubmitValidation(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{Memory: 8000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(JobSpec{}); err == nil {
		t.Fatal("empty job accepted")
	}
	if _, err := s.Submit(JobSpec{Keys: []int64{1}, Workload: &WorkloadSpec{Kind: "perm", N: 4}}); err == nil {
		t.Fatal("keys+workload accepted")
	}
	if _, err := s.Submit(JobSpec{Workload: &WorkloadSpec{Kind: "bogus", N: 4}}); err == nil {
		t.Fatal("unknown workload kind accepted")
	}
	if _, err := s.Submit(JobSpec{Keys: []int64{1, 2}, Memory: 1000}); err == nil {
		t.Fatal("non-square job memory accepted")
	}
	// A job whose envelope exceeds the whole budget is rejected at submit.
	if _, err := s.Submit(JobSpec{Keys: []int64{1, 2}, Memory: 4096}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := NewScheduler(SchedulerConfig{Memory: 8000, JobMemory: 1000}); err == nil {
		t.Fatal("non-square JobMemory accepted")
	}
	if _, err := NewScheduler(SchedulerConfig{}); err == nil {
		t.Fatal("zero memory budget accepted")
	}
	// JobMemory = 81 has no usable default Disks (√M/4 = 2 does not divide
	// 9); that is a per-job matter, so the scheduler constructs and runs a
	// job that names its own Disks.
	odd, err := NewScheduler(SchedulerConfig{Memory: 2000, JobMemory: 81})
	if err != nil {
		t.Fatalf("JobMemory = 81 rejected at construction: %v", err)
	}
	defer odd.Close()
	if _, err := odd.Submit(JobSpec{Keys: []int64{3, 1, 2}}); err == nil {
		t.Fatal("default Disks = 2 accepted on a 9-key block")
	}
	id, err := odd.Submit(JobSpec{Keys: []int64{3, 1, 2}, Disks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := odd.Wait(context.Background(), id); err != nil || st.State != JobDone {
		t.Fatalf("Disks = 3 job on JobMemory = 81: %+v, %v", st, err)
	}
}
