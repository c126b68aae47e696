package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// rollingArray is an M-key array with the given compute width for driving
// RollingPass over host slices.
func rollingArray(t *testing.T, m, workers int) *pdm.Array {
	t.Helper()
	a, err := pdm.New(pdm.Config{D: 4, B: memsort.Isqrt(m), Mem: m, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// rollOver runs RollingPass over in with a w-key window and returns what it
// emitted, in emission order.
func rollOver(a *pdm.Array, in []int64, w int) ([]int64, error) {
	var out []int64
	err := RollingPass(a, w, len(in)/w, func(t int, dst []int64) error {
		copy(dst, in[t*w:])
		return nil
	}, func(t int, chunk []int64) error {
		if len(out) != t*w {
			return fmt.Errorf("chunk %d emitted after %d keys", t, len(out))
		}
		out = append(out, chunk...)
		return nil
	})
	return out, err
}

// checkRoll asserts the cleanup's contract on one run: what it emitted is
// nondecreasing, a run without error emitted exactly the sorted input, a
// failing run failed by detection, and within reports a displacement the
// window covers, which must sort.
func checkRoll(in, out []int64, err error, within bool) error {
	switch {
	case !memsort.IsSorted(out):
		return errors.New("emitted unsorted output")
	case err == nil && !slices.Equal(out, slices.Sorted(slices.Values(in))):
		return errors.New("emitted keys differ from the sorted input")
	case err != nil && !errors.Is(err, ErrCleanupOverflow):
		return fmt.Errorf("failed with %v, want ErrCleanupOverflow", err)
	case err != nil && within:
		return fmt.Errorf("displacement within the window rejected: %v", err)
	}
	return nil
}

func TestRollingPassSortsDisplaced(t *testing.T) {
	a := rollingArray(t, 64, 1)
	for _, tc := range []struct{ n, d, w int }{
		{1024, 16, 16},
		{1024, 16, 32},
		{1024, 64, 64},
		{960, 10, 16}, // window not a multiple of the displacement
		{64, 64, 64},  // one chunk: a plain sort
		{12, 0, 4},    // already sorted
	} {
		in := workload.NearlySorted(tc.n, tc.d, int64(tc.n))
		out, err := rollOver(a, in, tc.w)
		if err := checkRoll(in, out, err, true); err != nil {
			t.Fatalf("n=%d d=%d w=%d: %v", tc.n, tc.d, tc.w, err)
		}
	}
}

func TestRollingPassDetectsOverflow(t *testing.T) {
	// A key displaced far beyond the window must trigger detection.
	a := rollingArray(t, 64, 1)
	in := workload.Sorted(1024)
	in[0], in[900] = in[900], in[0]
	if out, err := rollOver(a, in, 16); !errors.Is(err, ErrCleanupOverflow) || !memsort.IsSorted(out) {
		t.Fatalf("err = %v, emitted sorted %v; want ErrCleanupOverflow and a sorted prefix", err, memsort.IsSorted(out))
	}
}

func TestRollingPassReverseDetected(t *testing.T) {
	a := rollingArray(t, 64, 1)
	if _, err := rollOver(a, workload.ReverseSorted(256), 16); !errors.Is(err, ErrCleanupOverflow) {
		t.Fatalf("err = %v, want ErrCleanupOverflow", err)
	}
}

func TestRollingPassEmptyAndBadWindow(t *testing.T) {
	a := rollingArray(t, 64, 1)
	noRead := func(int, []int64) error { return errors.New("read called") }
	noEmit := func(int, []int64) error { return errors.New("emit called") }
	if err := RollingPass(a, 16, 0, noRead, noEmit); err != nil {
		t.Fatalf("no chunks: %v", err)
	}
	if err := RollingPass(a, 0, 4, noRead, noEmit); err == nil || errors.Is(err, ErrCleanupOverflow) {
		t.Fatalf("zero window: err = %v, want a validation error", err)
	}
}

// TestRollingPassQuickProperty: at one and four workers, for any window,
// chunk count and displacement, the cleanup sorts whenever the window
// covers the displacement, and otherwise either sorts or returns
// ErrCleanupOverflow — never emitting unsorted output either way.
func TestRollingPassQuickProperty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := rollingArray(t, 64, workers)
		f := func(seed int64, wRaw, cRaw, dRaw uint8) bool {
			w := 1 + int(wRaw)%16
			d := 1 + int(dRaw)%32
			in := workload.NearlySorted(w*(1+int(cRaw)%16), d, seed)
			out, err := rollOver(a, in, w)
			if err := checkRoll(in, out, err, d <= w); err != nil {
				t.Logf("workers=%d w=%d d=%d n=%d: %v", workers, w, d, len(in), err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollingPassAboveMergeGrain holds the same contract for a chunk wide
// enough that its sort and both merges fork across four workers, and at one
// worker for the same loads.
func TestRollingPassAboveMergeGrain(t *testing.T) {
	const chunk = 1 << 18
	for _, workers := range []int{1, 4} {
		a := rollingArray(t, chunk, workers)
		for _, tc := range []struct {
			name   string
			in     []int64
			within bool
		}{
			{"d=chunk", workload.NearlySorted(3*chunk, chunk, 1), true},
			{"d=2chunk", workload.NearlySorted(3*chunk, 2*chunk, 2), false},
			{"perm", workload.Perm(3*chunk, 3), false},
		} {
			out, err := rollOver(a, tc.in, chunk)
			if err := checkRoll(tc.in, out, err, tc.within); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.name, err)
			}
		}
		if s, _, _ := a.Pool().Counters(); workers > 1 && s == 0 {
			t.Fatalf("workers=%d: nothing forked", workers)
		}
		if a.Arena().InUse() != 0 {
			t.Fatalf("workers=%d: %d arena keys still in use", workers, a.Arena().InUse())
		}
	}
}

// TestRollingPassMeasuredDisplacement: a window of exactly the measured
// displacement (shuffle.MaxDisplacement, the measure a cleanup window is
// sized by) cleans the input.
func TestRollingPassMeasuredDisplacement(t *testing.T) {
	in := workload.NearlySorted(500, 32, 1)
	d := max(shuffle.MaxDisplacement(in), 1)
	if d > 32 {
		t.Fatalf("NearlySorted displacement = %d > 32", d)
	}
	// Keys above every other one pad the input to whole windows without
	// displacing any key.
	for len(in)%d != 0 {
		in = append(in, math.MaxInt64)
	}
	out, err := rollOver(rollingArray(t, 64, 1), in, d)
	if err := checkRoll(in, out, err, true); err != nil {
		t.Fatalf("window = measured displacement %d: %v", d, err)
	}
}
