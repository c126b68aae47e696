package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/pdmdapi"
	"repro/internal/plan"
	"repro/internal/wire"
)

// distFleet spins n in-process pdmd workers: each is a real scheduler
// behind the real HTTP handler on httptest, so the coordinator exercises
// the same wire protocol production would.
type distFleet struct {
	urls    []string
	servers []*httptest.Server
	scheds  []*repro.Scheduler
	dirs    []string // scratch roots, "" for in-memory fleets
}

func startFleet(t *testing.T, n int, cfg repro.SchedulerConfig) *distFleet {
	t.Helper()
	f := &distFleet{}
	for i := 0; i < n; i++ {
		c := cfg
		if c.Dir != "" {
			c.Dir = t.TempDir()
		}
		f.dirs = append(f.dirs, c.Dir)
		sch, err := repro.NewScheduler(c)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(pdmdapi.New(sch, pdmdapi.Options{MaxBody: 8 << 20}))
		f.urls = append(f.urls, ts.URL)
		f.servers = append(f.servers, ts)
		f.scheds = append(f.scheds, sch)
	}
	t.Cleanup(func() {
		for _, ts := range f.servers {
			ts.Close()
		}
		for _, sch := range f.scheds {
			sch.Close()
		}
	})
	return f
}

func smallSched() repro.SchedulerConfig {
	return repro.SchedulerConfig{
		Memory:    1 << 16,
		Workers:   2,
		JobMemory: 1024,
		Pipeline:  repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	}
}

func distWorkload(t *testing.T, kind string, n int, seed int64) []int64 {
	t.Helper()
	keys, err := (&repro.WorkloadSpec{Kind: kind, N: n, Seed: seed}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestDistSortBitIdentical is the tentpole acceptance test: the
// distributed sort's output must be byte-identical to the single-machine
// sort for 1, 2, and 4 workers across the determinism-suite workloads
// (random permutation, heavy duplicates, presorted runs).
func TestDistSortBitIdentical(t *testing.T) {
	const n = 20000
	workloads := []string{"perm", "zipf", "sortedruns"}
	for _, kind := range workloads {
		keys := distWorkload(t, kind, n, 7)
		want := slices.Clone(keys)
		slices.Sort(want)
		for _, workers := range []int{1, 2, 4} {
			f := startFleet(t, workers, smallSched())
			ds, err := repro.NewDistSorter(repro.DistConfig{
				Workers:  f.urls,
				PageKeys: 1 << 12, // several pages per shard
				Label:    fmt.Sprintf("bit-%s-%d", kind, workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := ds.Sort(context.Background(), slices.Clone(keys))
			if err != nil {
				t.Fatalf("%s/%d workers: %v", kind, workers, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%d workers: distributed output differs from single-machine sort", kind, workers)
			}
			// Aggregated accounting: every input key landed in exactly one
			// shard, every shard measured passes and I/O, and the fleet
			// roll-up reflects them.
			if rep.N != n || rep.Workers != workers {
				t.Fatalf("report geometry: %+v", rep)
			}
			shardN := 0
			for _, s := range rep.Shards {
				shardN += s.N
				if s.Passes <= 0 || s.IO.BlocksRead+s.IO.BlocksWritten <= 0 {
					t.Fatalf("shard on %s missing accounting: %+v", s.Worker, s)
				}
			}
			if shardN != n {
				t.Fatalf("shards cover %d of %d keys", shardN, n)
			}
			if rep.Passes <= 0 || rep.MaxPasses < rep.Passes-1e-9 {
				t.Fatalf("aggregate passes: mean %.3f, max %.3f", rep.Passes, rep.MaxPasses)
			}
			if rep.IO.BlocksRead <= 0 {
				t.Fatalf("aggregate IO empty: %+v", rep.IO)
			}
			if len(rep.Splitters) != workers-1 {
				t.Fatalf("%d splitters for %d workers", len(rep.Splitters), workers)
			}
		}
	}
}

// TestDistLMMOffDivisorShards forces ThreePass2 on two workers with
// JobMemory 4096 (√M = 64, D = 16) and sizes the input so that every shard
// pads to l = 3 runs, an l that does not divide D.  The (l, m)-merge still
// takes one pass there, so each shard reports exactly the planner's count
// (3, where a batch of one group per request used to read 7.333), and the
// output is bit-identical to slices.Sort.
func TestDistLMMOffDivisorShards(t *testing.T) {
	const mem, n = 4096, 5 * 4096
	keys := distWorkload(t, "perm", n, 11)
	want := slices.Clone(keys)
	slices.Sort(want)
	cfg := smallSched()
	cfg.JobMemory = mem
	f := startFleet(t, 2, cfg)
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: f.urls, Alg: repro.ThreePassLMM, Label: "lmm-off-divisor"})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := ds.Sort(context.Background(), slices.Clone(keys))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("distributed lmm3 output differs from slices.Sort")
	}
	shape := plan.Shape{Mem: mem, B: 64, D: 16, Alpha: 1}
	offDivisor := 0
	for _, s := range rep.Shards {
		read, write, exact := plan.ExactPasses(shape, plan.Workload{N: s.N}, plan.LMM3)
		if !exact {
			t.Fatalf("shard of %d keys measured %.6f passes; plan.ExactPasses(lmm3) is not exact", s.N, s.Passes)
		}
		if s.Algorithm != repro.ThreePassLMM.String() || s.Passes != max(read, write) {
			t.Errorf("shard of %d keys on %s: %s, %.6f passes, want lmm3 and the planner's %.6f",
				s.N, s.Worker, s.Algorithm, s.Passes, max(read, write))
		}
		if l := (s.N + mem - 1) / mem; 16%l != 0 {
			offDivisor++
		}
	}
	if offDivisor == 0 {
		t.Fatalf("no shard padded to an l that does not divide D (shards: %+v)", rep.Shards)
	}
}

// TestDistSortRecordsBitIdentical runs the full-record determinism check:
// variable-width payloads, duplicate-heavy keys, and the stable order
// among equal keys must match the single-machine SortRecords byte for
// byte at every worker count.
func TestDistSortRecordsBitIdentical(t *testing.T) {
	const n = 6000
	keys := distWorkload(t, "zipf", n, 11)
	payloads := (&repro.PayloadSpec{MinBytes: 0, MaxBytes: 24}).Materialize(n, 11)
	for i := range payloads {
		// Tag each payload with its original index so a stability break
		// is visible even between identical random bytes.
		payloads[i] = append(payloads[i], byte(i), byte(i>>8))
	}

	// Single-machine baseline.
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := slices.Clone(keys)
	wantPayloads := make([][]byte, n)
	for i := range payloads {
		wantPayloads[i] = slices.Clone(payloads[i])
	}
	if _, err := m.SortRecords(wantKeys, wantPayloads, repro.Auto); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		f := startFleet(t, workers, smallSched())
		ds, err := repro.NewDistSorter(repro.DistConfig{
			Workers:  f.urls,
			PageKeys: 1 << 11,
			Label:    fmt.Sprintf("rec-%d", workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		gotKeys, gotPayloads, rep, err := ds.SortRecords(context.Background(), slices.Clone(keys), clonePayloads(payloads))
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !slices.Equal(gotKeys, wantKeys) {
			t.Fatalf("%d workers: keys differ from single-machine SortRecords", workers)
		}
		for i := range gotPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("%d workers: payload %d differs (stability break): got %x want %x",
					workers, i, gotPayloads[i], wantPayloads[i])
			}
		}
		if rep.N != n {
			t.Fatalf("report: %+v", rep)
		}
	}
}

func clonePayloads(p [][]byte) [][]byte {
	out := make([][]byte, len(p))
	for i := range p {
		out[i] = slices.Clone(p[i])
	}
	return out
}

// TestDistSortRecordsUntouchedOnError: a worker that answers one result
// page of a records sort short fails the job, and the caller's keys and
// payloads are exactly as they were — the result moves into them only once
// every page has arrived.  The next sorts on the same coordinator, of
// records and of keys, are correct.
func TestDistSortRecordsUntouchedOnError(t *testing.T) {
	const n = 7000
	keys := distWorkload(t, "zipf", n, 17)
	payloads := (&repro.PayloadSpec{MinBytes: 1, MaxBytes: 16}).Materialize(n, 17)
	for i := range payloads {
		payloads[i] = append(payloads[i], byte(i), byte(i>>8))
	}
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantPayloads := slices.Clone(keys), clonePayloads(payloads)
	if _, err := m.SortRecords(wantKeys, wantPayloads, repro.Auto); err != nil {
		t.Fatal(err)
	}

	var tampered atomic.Bool
	urls := wrappedFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return tamperPages(h, "records", func(pg *wire.Page) {
				if len(pg.Keys) > 0 && tampered.CompareAndSwap(false, true) {
					pg.Keys, pg.Payloads = pg.Keys[1:], pg.Payloads[1:]
				}
			})
		}
		return h
	})
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: urls, PageKeys: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	inKeys, inPayloads := slices.Clone(keys), clonePayloads(payloads)
	views := slices.Clone(inPayloads)
	if _, _, _, err := ds.SortRecords(context.Background(), inKeys, inPayloads); err == nil || !strings.Contains(err.Error(), "result page: asked for") {
		t.Fatalf("SortRecords with a short result page returned %v, want the short page named", err)
	}
	if !slices.Equal(inKeys, keys) {
		t.Fatal("a failed SortRecords changed the caller's keys")
	}
	for i := range inPayloads {
		if !bytes.Equal(inPayloads[i], payloads[i]) || &inPayloads[i][0] != &views[i][0] {
			t.Fatalf("a failed SortRecords changed the caller's payload %d", i)
		}
	}

	gotKeys, gotPayloads, _, err := ds.SortRecords(context.Background(), inKeys, inPayloads)
	if err != nil || !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("SortRecords after the failure: keys differ from single-machine SortRecords (err %v)", err)
	}
	for i := range gotPayloads {
		if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
			t.Fatalf("SortRecords after the failure: payload %d differs", i)
		}
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if got, _, err := ds.Sort(context.Background(), slices.Clone(keys)); err != nil || !slices.Equal(got, want) {
		t.Fatalf("Sort after the failure differs from slices.Sort (err %v)", err)
	}
}

// TestDistConcurrentSorts runs key sorts of three sizes and one records
// sort at once on one coordinator, for three rounds, so later rounds
// borrow partition buffers earlier ones handed back, longer or shorter
// than the job.  Each result must equal its own slices.Sort (the records
// sort's, single-machine SortRecords), which it could not if the free list
// lent one buffer to two jobs at once.
func TestDistConcurrentSorts(t *testing.T) {
	f := startFleet(t, 2, smallSched())
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: f.urls, PageKeys: 1 << 10, Label: "concurrent"})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{2500, 6000, 11000}
	inputs, wants := make([][]int64, len(sizes)), make([][]int64, len(sizes))
	for i, n := range sizes {
		inputs[i] = distWorkload(t, "zipf", n, int64(31+i))
		wants[i] = slices.Clone(inputs[i])
		slices.Sort(wants[i])
	}
	const rn = 4000
	recKeys := distWorkload(t, "uniform", rn, 37)
	recPayloads := (&repro.PayloadSpec{MinBytes: 0, MaxBytes: 8}).Materialize(rn, 37)
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	wantRecKeys, wantRecPayloads := slices.Clone(recKeys), clonePayloads(recPayloads)
	if _, err := m.SortRecords(wantRecKeys, wantRecPayloads, repro.Auto); err != nil {
		t.Fatal(err)
	}

	for round := range 3 {
		var wg sync.WaitGroup
		for i := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := ds.Sort(context.Background(), slices.Clone(inputs[i]))
				if err != nil || !slices.Equal(got, wants[i]) {
					t.Errorf("round %d: Sort of %d keys differs from slices.Sort (err %v)", round, sizes[i], err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotKeys, gotPayloads, _, err := ds.SortRecords(context.Background(), slices.Clone(recKeys), clonePayloads(recPayloads))
			if err != nil || !slices.Equal(gotKeys, wantRecKeys) {
				t.Errorf("round %d: SortRecords keys differ from single-machine SortRecords (err %v)", round, err)
				return
			}
			for j := range gotPayloads {
				if !bytes.Equal(gotPayloads[j], wantRecPayloads[j]) {
					t.Errorf("round %d: SortRecords payload %d differs", round, j)
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestDistSortStuckDropBounded: once every page has arrived, a worker that
// stops answering cannot hold a successful sort up for long.  Worker 0
// never answers DELETE /jobs/{id}/result; Sort still returns the sorted
// keys, after the coordinator's one-second drop deadline at most, not the
// five seconds a failed job's cancels are given.
func TestDistSortStuckDropBounded(t *testing.T) {
	var asked atomic.Int32
	urls := wrappedFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodDelete && strings.HasSuffix(r.URL.Path, "/result") {
				asked.Add(1)
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: urls, PageKeys: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	keys := distWorkload(t, "uniform", 6000, 23)
	want := slices.Clone(keys)
	slices.Sort(want)
	start := time.Now()
	got, _, err := ds.Sort(context.Background(), keys)
	elapsed := time.Since(start)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("Sort with a stuck drop differs from slices.Sort (err %v)", err)
	}
	if asked.Load() == 0 {
		t.Fatal("the coordinator never asked worker 0 to drop its result")
	}
	if elapsed > 4*time.Second {
		t.Fatalf("a stuck drop held a successful Sort up for %v", elapsed)
	}
}

// TestDistCancellation cancels the caller's context mid-job and checks the
// fan-out: the coordinator returns promptly with the context error and
// every shard job on every worker reaches a terminal state, with worker
// memory fully drained.
func TestDistCancellation(t *testing.T) {
	f := startFleet(t, 2, smallSched())
	ds, err := repro.NewDistSorter(repro.DistConfig{
		Workers:        f.urls,
		Alg:            "seven", // many passes
		BlockLatencyUS: 500,     // modeled latency keeps the job running
		Label:          "cancel-e2e",
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := distWorkload(t, "perm", 32000, 3)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := ds.Sort(ctx, keys)
		done <- err
	}()
	// Wait until at least one worker is actually sorting, then pull the plug.
	waitUntil(t, 10*time.Second, func() bool {
		for _, sch := range f.scheds {
			if sch.Stats().Running > 0 {
				return true
			}
		}
		return false
	})
	cancel()
	select {
	case err := <-done:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("canceled sort returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("canceled sort never returned")
	}
	// The fan-out must leave no job running and no memory reserved.
	waitUntil(t, 10*time.Second, func() bool {
		for _, sch := range f.scheds {
			st := sch.Stats()
			if st.Running > 0 || st.Queued > 0 || st.MemInUse > 0 {
				return false
			}
		}
		return true
	})
}

// TestDistPartialWorkerFailure kills one worker mid-shard.  The
// distributed job must fail cleanly with an error naming the failure,
// cancel the surviving workers' shard jobs, and drain without goroutine
// or scratch-dir leaks.
func TestDistPartialWorkerFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := smallSched()
	cfg.Dir = "scratch" // rewritten to a fresh t.TempDir() per worker
	f := startFleet(t, 3, cfg)
	ds, err := repro.NewDistSorter(repro.DistConfig{
		Workers:        f.urls,
		Alg:            "seven",
		BlockLatencyUS: 500,
		Label:          "partial-fail",
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := distWorkload(t, "perm", 48000, 5)
	orig := slices.Clone(keys)

	done := make(chan error, 1)
	go func() {
		_, _, err := ds.Sort(context.Background(), keys)
		done <- err
	}()
	// Let the shards land and start sorting, then kill worker 1.
	waitUntil(t, 10*time.Second, func() bool {
		running := 0
		for _, sch := range f.scheds {
			running += sch.Stats().Running
		}
		return running >= 2
	})
	f.servers[1].CloseClientConnections()
	f.servers[1].Close()

	var sortErr error
	select {
	case sortErr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("distributed job never failed after losing a worker")
	}
	if sortErr == nil {
		t.Fatal("distributed job succeeded with a dead worker")
	}
	if !slices.Equal(keys, orig) {
		t.Fatal("a failed distributed sort changed its input")
	}

	// Survivors' jobs were canceled and their budgets drained.
	for _, i := range []int{0, 2} {
		sch := f.scheds[i]
		waitUntil(t, 10*time.Second, func() bool {
			st := sch.Stats()
			return st.Running == 0 && st.Queued == 0 && st.MemInUse == 0
		})
		for _, job := range sch.Jobs() {
			switch job.State {
			case repro.JobDone, repro.JobFailed, repro.JobCanceled:
			default:
				t.Fatalf("survivor %d: job %d stuck in state %s", i, job.ID, job.State)
			}
		}
	}

	// Closing the survivors must leave their scratch directories empty —
	// a canceled shard may not leak spill files.
	f.servers[0].Close()
	f.servers[2].Close()
	f.scheds[0].Close()
	f.scheds[2].Close()
	for _, i := range []int{0, 2} {
		entries, err := os.ReadDir(f.dirs[i])
		if err != nil {
			continue // the scheduler removed its own root: nothing leaked
		}
		if len(entries) != 0 {
			t.Fatalf("survivor %d leaked %d scratch entries in %s", i, len(entries), f.dirs[i])
		}
	}

	// No goroutines left over from the coordinator or the fan-out.
	waitUntil(t, 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline+10
	})
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestDistWorkerDownAtSubmit: a fleet where one worker is unreachable from
// the start fails in the probe, before any data moves.
func TestDistWorkerDownAtSubmit(t *testing.T) {
	f := startFleet(t, 1, smallSched())
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	ds, err := repro.NewDistSorter(repro.DistConfig{
		Workers: []string{f.urls[0], dead.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ds.Sort(context.Background(), []int64{3, 1, 2})
	if err == nil {
		t.Fatal("sort succeeded with an unreachable worker")
	}
	if jobs := f.scheds[0].Jobs(); len(jobs) != 0 {
		t.Fatalf("probe failure still submitted %d jobs", len(jobs))
	}
}
