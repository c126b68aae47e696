//go:build !race

package repro_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro"
)

// TestDistSortAllocations bounds what a warm distributed sort allocates on
// the host, coordinator and both in-process workers together, at M = 1 Ki
// on file disks, N = 256 Ki and 8 Ki-key pages.  The coordinator sorts the
// caller's slice in place through a partition buffer it keeps between
// jobs: upload page bodies are views of it, the sorted shards decode back
// into it, and one copy moves them out.  A warm worker holds one copy, the
// job's own copy of its shard: binary pages decode into staging buffers
// the last upload released, and its shard job takes the idle machine the
// last one left.  The rest is net/http's (headers, 32 KiB copy buffers),
// ≈ 1.6 copies at this shape, so the bound is four copies of the keys; a
// fresh partition buffer per job makes ≈ 4.7, and a copy per page body,
// staged page and result on top of that ≈ 7.8.  Each sort is handed the
// same shuffled input, cloned before the count starts.  The least of four
// warm sorts is taken: a sort that has to dial a fresh connection
// allocates its buffers too.
func TestDistSortAllocations(t *testing.T) {
	const n, pageKeys = 1 << 18, 1 << 13
	cfg := smallSched()
	cfg.Dir = "file" // file disks: a MemDisk allocates its blocks per job
	f := startFleet(t, 2, cfg)
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: f.urls, PageKeys: pageKeys, Label: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	keys := distWorkload(t, "uniform", n, 5)
	want := slices.Clone(keys)
	slices.Sort(want)
	sort := func() uint64 {
		in := slices.Clone(keys)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := ds.Sort(context.Background(), in)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || &got[0] != &in[0] {
			t.Fatal("distributed sort did not sort its input in place into the slices.Sort order")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	sort() // warm the workers' arenas, disks and staging
	least := sort()
	for range 3 {
		least = min(least, sort())
	}
	const bound = 4 * 8 * n
	t.Logf("a warm sort of %d keys allocates %d B (bound %d B, one copy is %d B)", n, least, bound, 8*n)
	if least > bound {
		t.Errorf("a warm distributed sort of %d keys allocates %d B, more than %d B (four copies of the keys)", n, least, bound)
	}
}

// TestDistSortDropsWorkerResults: a distributed sort leaves no shard behind
// on the fleet.  The coordinator drops each shard job's kept keys once it
// has downloaded them, so the live heap of coordinator and workers
// together after 20 sorts of 256 Ki keys stays within one copy of the
// keys of the level after 5; were every shard kept, it would grow by a
// copy a sort.  Every shard job keeps its status and report.
func TestDistSortDropsWorkerResults(t *testing.T) {
	const n = 1 << 18
	cfg := smallSched()
	cfg.Dir = "file"
	f := startFleet(t, 2, cfg)
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: f.urls, PageKeys: 1 << 13, Label: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	keys := distWorkload(t, "uniform", n, 9)
	in := make([]int64, n)
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var after5 uint64
	for i := 1; i <= 20; i++ {
		copy(in, keys)
		if _, _, err := ds.Sort(context.Background(), in); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			after5 = live()
		}
	}
	after20 := live()
	t.Logf("live heap after 5 sorts %d B, after 20 %d B (one copy is %d B)", after5, after20, 8*n)
	if after20 > after5+8*n {
		t.Errorf("live heap grew from %d B after 5 sorts to %d B after 20, more than one copy of the keys (%d B)", after5, after20, 8*n)
	}
	for i, sch := range f.scheds {
		jobs := sch.Jobs()
		if len(jobs) != 20 {
			t.Fatalf("worker %d lists %d jobs, want the 20 shard jobs", i, len(jobs))
		}
		for _, js := range jobs {
			if js.State != repro.JobDone || js.Report == nil {
				t.Fatalf("worker %d: job %d is %s with report %v after its result was dropped", i, js.ID, js.State, js.Report)
			}
			if _, err := sch.SortedKeys(js.ID); err == nil {
				t.Fatalf("worker %d: job %d still serves its sorted keys", i, js.ID)
			}
		}
	}
}
