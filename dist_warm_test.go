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
// on file disks, N = 256 Ki and 8 Ki-key pages.  The coordinator holds one
// copy of the keys, the partition buffer: upload page bodies are views of
// it and the sorted shards decode back into it.  A warm worker holds one,
// the job's own copy of its shard: binary pages decode into staging
// buffers the last upload released, and its shard job takes the idle
// machine the last one left.  The rest is net/http's (headers, 32 KiB
// copy buffers), ≈ 1.6 copies at this shape (≈ 2.7 with a fresh machine
// per shard job), so the bound is six copies of the keys; a copy per page
// body, staged page and result on top of them makes ≈ 7.8.
// The least of four warm sorts is taken: a sort that has to dial a fresh
// connection allocates its buffers too.
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := ds.Sort(context.Background(), keys)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatal("distributed sort output differs from slices.Sort")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	sort() // warm the workers' arenas, disks and staging
	least := sort()
	for range 3 {
		least = min(least, sort())
	}
	const bound = 6 * 8 * n
	t.Logf("a warm sort of %d keys allocates %d B (bound %d B, one copy is %d B)", n, least, bound, 8*n)
	if least > bound {
		t.Errorf("a warm distributed sort of %d keys allocates %d B, more than %d B (six copies of the keys)", n, least, bound)
	}
}
