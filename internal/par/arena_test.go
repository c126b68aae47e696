package par_test

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/memsort"
	"repro/internal/par"
	"repro/internal/pdm"
)

func randLoad(rng *rand.Rand, n int) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63() - 1<<62
	}
	return a
}

// TestPoolArenaScratch drives every kernel borrow of an arena-backed pool
// — a load sort, column sorts running concurrently under For, a k-way
// merge with a radix tail — and checks each against its
// serial reference and the arena after it: every key handed back, the peak
// the borrows' own sizes, nothing refused.  Then an arena too small to
// lend anything refuses every borrow, and the same calls give the same
// keys through the scratch-free fallbacks, each refusal counted.
func TestPoolArenaScratch(t *testing.T) {
	const n, cols, lanes = 1 << 14, 8, 16
	rng := rand.New(rand.NewSource(4))
	src := randLoad(rng, n)
	want := slices.Clone(src)
	slices.Sort(want)
	laneSet := make([][]int64, lanes)
	for i := range laneSet {
		laneSet[i] = randLoad(rng, n/lanes)
		slices.Sort(laneSet[i])
	}
	run := func(p *par.Pool) {
		t.Helper()
		a := slices.Clone(src)
		p.SortKeys(a)
		if !slices.Equal(a, want) {
			t.Fatal("SortKeys differs from slices.Sort")
		}
		a = slices.Clone(src)
		colLen := n / cols
		p.For(8*n, cols, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				p.SortSegment(a[c*colLen : (c+1)*colLen])
			}
		})
		for c := 0; c < cols; c++ {
			if col := a[c*colLen : (c+1)*colLen]; !memsort.IsSorted(col) {
				t.Fatalf("column %d not sorted", c)
			}
		}
		dst := make([]int64, n)
		p.MultiMerge(dst, laneSet)
		merged := slices.Concat(laneSet...)
		slices.Sort(merged)
		if !slices.Equal(dst, merged) {
			t.Fatal("MultiMerge differs from the sorted concatenation")
		}
	}

	ar := pdm.NewArena(2 * n)
	run(par.NewLimited(2, nil, ar))
	if ar.InUse() != 0 || ar.Peak() != n || ar.Refused() != 0 {
		t.Fatalf("arena after the borrows: in use %d, peak %d (want the load sort's %d), refused %d",
			ar.InUse(), ar.Peak(), n, ar.Refused())
	}

	tiny := pdm.NewArena(memsort.RadixMinKeys - 1)
	run(par.NewLimited(2, nil, tiny))
	if tiny.InUse() != 0 || tiny.Peak() != 0 || tiny.Refused() < 1+cols+1 {
		t.Fatalf("tiny arena: in use %d, peak %d, refused %d (want 0, 0, >= %d)",
			tiny.InUse(), tiny.Peak(), tiny.Refused(), 1+cols+1)
	}
}

// TestSortKeysRadixAllocRegression is the alloc-count regression for the
// kernel's scratch: after one warm-up sort, SortKeys on an arena-backed
// pool takes its scratch back from the arena and allocates nothing.
func TestSortKeysRadixAllocRegression(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1 << 16
	ar := pdm.NewArena(2 * n)
	p := par.NewLimited(1, nil, ar)
	a := make([]int64, n)
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
	p.SortKeys(a) // the arena keeps the scratch it lent
	allocs := testing.AllocsPerRun(4, func() {
		fill()
		p.SortKeys(a)
	})
	if allocs != 0 {
		t.Fatalf("SortKeys allocated %.0f objects per run, want 0", allocs)
	}
	if ar.InUse() != 0 || ar.Peak() != n {
		t.Fatalf("arena in use %d, peak %d after the sorts, want 0 and %d", ar.InUse(), ar.Peak(), n)
	}
}
