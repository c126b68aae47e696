package par

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/memsort"
)

var testWidths = []int{1, 2, 3, 4, 8}

// forkWidths are the widths the parallel bodies are driven at directly.  The
// grain rule keeps the exported operations serial at test-friendly sizes, so
// the bodies' tests bypass it: any width must give the serial result at any
// size.
var forkWidths = []int{2, 3, 8}

func randKeys(rng *rand.Rand, n int, span int64) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(2*span) - span
	}
	return a
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("zero-worker pool")
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("Workers() = %d, want 5", got)
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, w := range testWidths {
		p := New(w)
		const n = 8*forGrain + 13 // every width forks
		hits := make([]int32, n)
		p.For(n, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, h)
			}
		}
	}
}

// TestForBelowGrainRunsSerial pins the grain rule on For: work that does not
// give two workers a full grain each is one inline call, and the pool is only
// as wide as the work pays for.
func TestForBelowGrainRunsSerial(t *testing.T) {
	p := New(8)
	for _, work := range []int{10, 2*forGrain - 1} {
		calls := 0
		p.For(work, 10, func(w, lo, hi int) {
			calls++
			if w != 0 || lo != 0 || hi != 10 {
				t.Fatalf("work %d: serial call = (%d, %d, %d)", work, w, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("work %d: %d calls, want 1", work, calls)
		}
	}
	if s, _, _ := p.Counters(); s != 0 {
		t.Fatalf("serial For recorded %d sections", s)
	}
	var calls atomic.Int32
	p.For(3*forGrain, 10, func(_, _, _ int) { calls.Add(1) })
	if calls.Load() != 3 {
		t.Fatalf("3 grains of work forked %d ways, want 3", calls.Load())
	}
}

func TestSortKeysMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 500, 5000, 20000} {
		src := randKeys(rng, n, 50) // duplicates likely
		if n > 2 {
			src[0], src[1] = math.MaxInt64, math.MinInt64
		}
		want := append([]int64(nil), src...)
		memsort.Keys(want)
		for _, w := range testWidths {
			p := New(w)
			a := append([]int64(nil), src...)
			p.SortKeys(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d w=%d: SortKeys differs from serial", n, w)
			}
			a = append([]int64(nil), src...)
			p.SortKeysScratch(a, make([]int64, n))
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d w=%d: SortKeysScratch differs from serial", n, w)
			}
			// Undersized scratch must fall back, not fail.
			a = append([]int64(nil), src...)
			p.SortKeysScratch(a, make([]int64, n/2))
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d w=%d: fallback path differs from serial", n, w)
			}
		}
	}
}

func TestSortSegmentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 100, memsort.RadixMinKeys, 5000} {
		src := randKeys(rng, n, 1<<50)
		want := append([]int64(nil), src...)
		memsort.Keys(want)
		a := append([]int64(nil), src...)
		New(4).SortSegment(a)
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: SortSegment differs from serial", n)
		}
	}
}

// TestSortBodiesMatchSerial drives the parallel sort body at forced widths
// and small sizes (segments of a few keys, widths above the key count's
// grain), and the serial leaf without scratch (a refused borrow's
// introsort).
func TestSortBodiesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{8, 500, 1037, 20000} {
		src := randKeys(rng, n, 1<<40)
		src[0], src[1] = math.MaxInt64, math.MinInt64
		want := append([]int64(nil), src...)
		memsort.Keys(want)
		for _, w := range forkWidths {
			a := append([]int64(nil), src...)
			New(w).sortSegmentsMerge(a, make([]int64, n), w)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d w=%d: sortSegmentsMerge differs from serial", n, w)
			}
		}
		a := append([]int64(nil), src...)
		sortSerial(a, nil)
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: sortSerial without scratch differs from serial", n)
		}
	}
}

// TestSortKeysAboveGrainForks checks the exported entry points really take
// the parallel path once two workers get a grain each, and agree with the
// serial kernel there.
func TestSortKeysAboveGrainForks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2*sortGrain + 5
	src := randKeys(rng, n, 1<<50)
	want := append([]int64(nil), src...)
	memsort.Keys(want)
	for _, scratch := range [][]int64{nil, make([]int64, n)} {
		p := New(3)
		a := append([]int64(nil), src...)
		p.SortKeysScratch(a, scratch) // nil scratch: the SortKeys path
		if !slices.Equal(a, want) {
			t.Fatalf("scratch=%v: differs from serial", scratch != nil)
		}
		if s, _, _ := p.Counters(); s != 1 {
			t.Fatalf("scratch=%v: %d sections, want 1", scratch != nil, s)
		}
	}
	p := New(3)
	a := append([]int64(nil), src[:2*sortGrain-1]...)
	p.SortKeys(a)
	if s, _, _ := p.Counters(); s != 0 || !memsort.IsSorted(a) {
		t.Fatalf("a load under two grains forked (%d sections)", s)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{1, 1}, {4, 7}, {64, 64}, {128, 33}, {2100, 64}} { // the last forks
		rows, cols := dims[0], dims[1]
		src := randKeys(rng, rows*cols, 1<<30)
		for _, w := range testWidths {
			dst := make([]int64, rows*cols)
			New(w).Transpose(dst, src, rows, cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if dst[c*rows+r] != src[r*cols+c] {
						t.Fatalf("%dx%d w=%d: dst[%d][%d] wrong", rows, cols, w, c, r)
					}
				}
			}
		}
	}
}

func TestCountersAdvanceAndReset(t *testing.T) {
	p := New(4)
	a := randKeys(rand.New(rand.NewSource(8)), 2*sortGrain, 1<<30)
	p.SortKeys(a)
	sections, wall, busy := p.Counters()
	if sections == 0 || wall <= 0 || busy <= 0 {
		t.Fatalf("counters did not advance: %d, %d, %d", sections, wall, busy)
	}
	p.ResetCounters()
	if s, w, b := p.Counters(); s != 0 || w != 0 || b != 0 {
		t.Fatalf("counters not reset: %d, %d, %d", s, w, b)
	}
	// A serial pool records no sections.
	p1 := New(1)
	p1.SortKeys(a)
	if s, _, _ := p1.Counters(); s != 0 {
		t.Fatalf("serial pool recorded %d sections", s)
	}
}
