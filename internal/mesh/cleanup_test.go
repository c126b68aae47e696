package mesh

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/memsort"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

func TestRollingCleanSortsDisplaced(t *testing.T) {
	for _, tc := range []struct{ n, d, w int }{
		{1000, 16, 16},
		{1000, 16, 32},
		{1024, 64, 64},
		{999, 10, 16}, // ragged tail
		{64, 64, 64},  // w >= n: plain sort
		{10, 0, 4},    // already sorted
	} {
		a := workload.NearlySorted(tc.n, tc.d, int64(tc.n))
		if err := RollingClean(a, tc.w); err != nil {
			t.Fatalf("n=%d d=%d w=%d: %v", tc.n, tc.d, tc.w, err)
		}
		if !memsort.IsSorted(a) {
			t.Fatalf("n=%d d=%d w=%d: not sorted", tc.n, tc.d, tc.w)
		}
	}
}

func TestRollingCleanDetectsOverflow(t *testing.T) {
	// A key displaced far beyond the window must trigger detection.
	a := workload.Sorted(1000)
	a[0], a[900] = a[900], a[0]
	if err := RollingClean(a, 16); !errors.Is(err, ErrDirtyOverflow) {
		t.Fatalf("err = %v, want ErrDirtyOverflow", err)
	}
}

func TestRollingCleanReverseDetected(t *testing.T) {
	a := workload.ReverseSorted(256)
	if err := RollingClean(a, 16); !errors.Is(err, ErrDirtyOverflow) {
		t.Fatalf("err = %v, want ErrDirtyOverflow", err)
	}
}

func TestRollingCleanEmptyAndBadWindow(t *testing.T) {
	if err := RollingClean(nil, 4); err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if err := RollingClean(make([]int64, 4), 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestPairwiseCleanMatchesRolling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.Intn(500)
		d := 1 + rng.Intn(20)
		a := workload.NearlySorted(n, d, rng.Int63())
		b := append([]int64(nil), a...)
		if err := RollingClean(a, d); err != nil {
			t.Fatalf("RollingClean: %v", err)
		}
		PairwiseClean(b, d)
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d: rolling and pairwise disagree", trial)
		}
	}
}

func TestRollingCleanQuickProperty(t *testing.T) {
	// Property: for any displacement bound d <= w, RollingClean sorts.
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := 32 + int(nRaw)
		d := 1 + int(dRaw)%16
		a := workload.NearlySorted(n, d, seed)
		if err := RollingClean(a, d); err != nil {
			return false
		}
		return memsort.IsSorted(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxDisplacement checks shuffle.MaxDisplacement, the measure a
// RollingClean window is sized by, and that a window of the measured
// displacement cleans the input.
func TestMaxDisplacement(t *testing.T) {
	if got := shuffle.MaxDisplacement([]int64{1, 2, 3}); got != 0 {
		t.Fatalf("sorted displacement = %d", got)
	}
	if got := shuffle.MaxDisplacement([]int64{3, 1, 2}); got != 2 {
		t.Fatalf("displacement = %d, want 2", got)
	}
	// Duplicates: stable order keeps equal keys in place.
	if got := shuffle.MaxDisplacement([]int64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant displacement = %d", got)
	}
	a := workload.NearlySorted(500, 32, 1)
	d := shuffle.MaxDisplacement(a)
	if d > 32 {
		t.Fatalf("NearlySorted displacement = %d > 32", d)
	}
	if err := RollingClean(a, max(d, 1)); err != nil || !memsort.IsSorted(a) {
		t.Fatalf("RollingClean at w = %d: err %v, sorted %v", d, err, memsort.IsSorted(a))
	}
}

func TestThreePassRefSorts(t *testing.T) {
	const mem = 64 // mesh is 64x8, N = 512
	n := mem * memsort.Isqrt(mem)
	inputs := map[string][]int64{
		"random":   workload.Perm(n, 9),
		"sorted":   workload.Sorted(n),
		"reversed": workload.ReverseSorted(n),
		"organ":    workload.Organ(n),
		"zeroone":  workload.ZeroOneK(n, n/3, 2),
		"dups":     workload.FewDistinct(n, 3, 4),
		"segrev":   workload.SegmentReversed(n, mem),
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			want := append([]int64(nil), data...)
			memsort.Keys(want)
			if err := ThreePassRef(data, mem); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(data, want) {
				t.Fatal("output differs from sorted input")
			}
		})
	}
}

func TestThreePassRefValidation(t *testing.T) {
	if err := ThreePassRef(make([]int64, 10), 5); err == nil {
		t.Fatal("non-square M accepted")
	}
	if err := ThreePassRef(make([]int64, 10), 64); err == nil {
		t.Fatal("wrong input size accepted")
	}
}

func TestThreePassRefZeroOneExhaustiveSmall(t *testing.T) {
	// For a small geometry, check every 0-1 input class size k — the 0-1
	// principle says this implies correctness on all inputs.
	const mem = 16 // mesh 16x4, N = 64
	n := mem * 4
	for k := 0; k <= n; k++ {
		for rep := 0; rep < 3; rep++ {
			data := workload.ZeroOneK(n, k, int64(k*10+rep))
			if err := ThreePassRef(data, mem); err != nil {
				t.Fatalf("k=%d rep=%d: %v", k, rep, err)
			}
			if !memsort.IsSorted(data) {
				t.Fatalf("k=%d rep=%d: not sorted", k, rep)
			}
		}
	}
}

func TestExpTwoPassRefRandomMostlySucceeds(t *testing.T) {
	const mem = 1024
	cols := memsort.Isqrt(mem)
	// Capacity per Theorem 3.2: rows well below M by a log factor.
	rows := mem / 16
	n := rows * cols
	fail := 0
	for trial := 0; trial < 20; trial++ {
		data := workload.Perm(n, int64(trial))
		err := ExpTwoPassRef(data, mem)
		switch {
		case err == nil:
			if !memsort.IsSorted(data) {
				t.Fatalf("trial %d: reported success but unsorted", trial)
			}
		case errors.Is(err, ErrDirtyOverflow):
			fail++
		default:
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if fail > 2 {
		t.Fatalf("%d/20 random trials overflowed the window", fail)
	}
}

func TestExpTwoPassRefAdversarialDetected(t *testing.T) {
	const mem = 256
	cols := memsort.Isqrt(mem)
	n := mem * cols / 4
	data := workload.ColumnLoaded(n, cols)
	if err := ExpTwoPassRef(data, mem); !errors.Is(err, ErrDirtyOverflow) {
		t.Fatalf("err = %v, want ErrDirtyOverflow", err)
	}
}

func TestExpTwoPassRefReverseSortedSucceeds(t *testing.T) {
	// Reverse-sorted input is easy for the mesh variant: the column sort
	// leaves every key within √M of home, well inside the window.
	const mem = 256
	cols := memsort.Isqrt(mem)
	n := mem * cols / 4
	data := workload.ReverseSorted(n)
	if err := ExpTwoPassRef(data, mem); err != nil {
		t.Fatal(err)
	}
	if !memsort.IsSorted(data) {
		t.Fatal("not sorted")
	}
}

func TestExpTwoPassRefValidation(t *testing.T) {
	if err := ExpTwoPassRef(make([]int64, 10), 5); err == nil {
		t.Fatal("non-square M accepted")
	}
	if err := ExpTwoPassRef(make([]int64, 10), 16); err == nil {
		t.Fatal("non-column-multiple accepted")
	}
	if err := ExpTwoPassRef(make([]int64, 16*17), 16); err == nil {
		t.Fatal("columns taller than M accepted")
	}
}
