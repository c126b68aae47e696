package par

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
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
// used once and dropped, and the list never holds more than
// maxPooledScratch buffers — the pool must not pin worker-count ×
// load-size bytes after one large-M sort.
func TestScratchPoolCap(t *testing.T) {
	pooled := func() int {
		scratchFree.Lock()
		defer scratchFree.Unlock()
		return len(scratchFree.bufs)
	}
	drain := func() {
		for pooled() > 0 {
			getScratch(0)
		}
	}

	drain()
	small := getScratch(maxPooledScratchKeys)
	base := &(*small)[0]
	putScratch(small)
	if again := getScratch(1024); &(*again)[0] != base {
		t.Fatal("scratch under the cap was not reused from the free list")
	}

	drain()
	putScratch(getScratch(maxPooledScratchKeys + 1))
	if n := pooled(); n != 0 {
		t.Fatalf("oversized scratch retained in the free list (%d entries)", n)
	}

	for range maxPooledScratch + 3 {
		b := make([]int64, 1024)
		putScratch(&b)
	}
	if n := pooled(); n != maxPooledScratch {
		t.Fatalf("free list holds %d buffers, want its cap %d", n, maxPooledScratch)
	}

	// Concurrent borrowers (columnsort's column sorts, concurrent jobs) each
	// own their buffer outright until they return it.
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				bp := getScratch(1024)
				for i := range *bp {
					(*bp)[i] = int64(g)
				}
				runtime.Gosched()
				if slices.ContainsFunc(*bp, func(v int64) bool { return v != int64(g) }) {
					t.Error("scratch buffer shared between borrowers")
				}
				putScratch(bp)
			}
		}()
	}
	wg.Wait()
	if n := pooled(); n > maxPooledScratch {
		t.Fatalf("free list holds %d buffers past its cap %d", n, maxPooledScratch)
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
