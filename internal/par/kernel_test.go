package par

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/memsort"
)

// kernels lists the concrete kernels the tests and benchmarks of this
// package force, each the reference for the other.
var kernels = []Kernel{KernelComparison, KernelRadix}

func TestAutoKernel(t *testing.T) {
	if AutoKernel(autoRadixMinKeys-1) != KernelComparison {
		t.Fatal("below threshold should pick comparison")
	}
	if AutoKernel(autoRadixMinKeys) != KernelRadix {
		t.Fatal("at threshold should pick radix")
	}
}

func TestSortSegmentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 100, memsort.RadixMinKeys, 5000} {
		src := randKeys(rng, n, 1<<50)
		want := append([]int64(nil), src...)
		memsort.Keys(want)
		for _, k := range []Kernel{KernelAuto, KernelComparison, KernelRadix} {
			a := append([]int64(nil), src...)
			NewWithKernel(4, nil, k).SortSegment(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d kernel=%s: SortSegment differs from serial", n, k)
			}
		}
	}
}

// TestScratchPoolCap pins the scratch-retention cap: buffers at or under
// maxPooledScratchKeys cycle through the free list, while oversized ones are
// used once and dropped — the pool must not pin worker-count × load-size
// bytes after one large-M sort.
func TestScratchPoolCap(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC: pool entries survive
	drain := func() {
		for scratchPool.Get() != nil {
		}
	}

	// Under the race detector sync.Pool drops a quarter of its Puts at
	// random, so reuse is required within a few tries, not on the first.
	reused := false
	for try := 0; try < 10 && !reused; try++ {
		drain()
		small := getScratch(maxPooledScratchKeys)
		base := &(*small)[0]
		putScratch(small)
		again := getScratch(1024)
		reused = &(*again)[0] == base
	}
	if !reused {
		t.Fatal("scratch under the cap was not reused from the free list")
	}

	drain()
	big := getScratch(maxPooledScratchKeys + 1)
	putScratch(big)
	if got := scratchPool.Get(); got != nil {
		t.Fatalf("oversized scratch retained in pool (cap %d keys)",
			cap(*got.(*[]int64)))
	}
}

// TestSortKeysRadixAllocRegression is the alloc-count regression for the
// pooled scratch: after one warm-up sort, radix SortKeys at a load size
// within the cap must not allocate per call.
func TestSortKeysRadixAllocRegression(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := NewWithKernel(1, nil, KernelRadix)
	a := make([]int64, maxPooledScratchKeys)
	var x uint64 = 0x9e3779b97f4a7c15
	fill := func() {
		for i := range a {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a[i] = int64(x)
		}
	}
	fill()
	p.SortKeys(a) // warm the free list
	allocs := testing.AllocsPerRun(4, func() {
		fill()
		p.SortKeys(a)
	})
	if allocs > 1 {
		t.Fatalf("radix SortKeys allocated %.0f objects per run, want <= 1", allocs)
	}
}
