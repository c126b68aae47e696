package mesh

import (
	"errors"
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
