package memsort

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestKeysSmallCases(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{1},
		{2, 1},
		{1, 2},
		{3, 3, 3},
		{5, 4, 3, 2, 1},
		{1, 5, 2, 4, 3},
		{-1, -5, 0, 5, 1},
	}
	for _, in := range cases {
		got := append([]int64(nil), in...)
		want := append([]int64(nil), in...)
		Keys(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Keys(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestKeysMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5000)
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(1000) - 500
		}
		want := append([]int64(nil), a...)
		slices.Sort(want)
		Keys(a)
		if !slices.Equal(a, want) {
			t.Fatalf("trial %d: mismatch at n=%d", trial, n)
		}
	}
}

func TestKeysAdversarialPatterns(t *testing.T) {
	patterns := map[string]func(n int) []int64{
		"sorted": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(i)
			}
			return a
		},
		"reversed": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(n - i)
			}
			return a
		},
		"constant": func(n int) []int64 {
			return make([]int64, n)
		},
		"organ": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				if i < n/2 {
					a[i] = int64(i)
				} else {
					a[i] = int64(n - i)
				}
			}
			return a
		},
		"few-distinct": func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(i % 3)
			}
			return a
		},
	}
	for name, gen := range patterns {
		t.Run(name, func(t *testing.T) {
			a := gen(4097)
			want := append([]int64(nil), a...)
			slices.Sort(want)
			Keys(a)
			if !slices.Equal(a, want) {
				t.Fatal("mismatch")
			}
		})
	}
}

func TestKeysQuickProperty(t *testing.T) {
	f := func(a []int64) bool {
		got := append([]int64(nil), a...)
		want := append([]int64(nil), a...)
		Keys(got)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]int64{1}) || !IsSorted([]int64{1, 1, 2}) {
		t.Fatal("sorted input rejected")
	}
	if IsSorted([]int64{2, 1}) {
		t.Fatal("unsorted input accepted")
	}
}

func TestReverse(t *testing.T) {
	a := []int64{1, 2, 3, 4}
	Reverse(a)
	if !slices.Equal(a, []int64{4, 3, 2, 1}) {
		t.Fatalf("Reverse = %v", a)
	}
	b := []int64{1, 2, 3}
	Reverse(b)
	if !slices.Equal(b, []int64{3, 2, 1}) {
		t.Fatalf("Reverse odd = %v", b)
	}
}

func TestMergeBinary(t *testing.T) {
	a := []int64{1, 3, 5}
	b := []int64{2, 4, 6, 7}
	dst := make([]int64, 7)
	MergeBinary(dst, a, b)
	if !slices.Equal(dst, []int64{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("MergeBinary = %v", dst)
	}
	// Empty sides.
	dst = make([]int64, 3)
	MergeBinary(dst, nil, []int64{1, 2, 3})
	if !slices.Equal(dst, []int64{1, 2, 3}) {
		t.Fatalf("MergeBinary empty a = %v", dst)
	}
	MergeBinary(dst, []int64{1, 2, 3}, nil)
	if !slices.Equal(dst, []int64{1, 2, 3}) {
		t.Fatalf("MergeBinary empty b = %v", dst)
	}
}

func TestMergeBinaryStability(t *testing.T) {
	// Equal keys must come from a first; detectable only via exhaustion
	// order, checked here by merging with b shifted copies.
	a := []int64{1, 1, 2}
	b := []int64{1, 2, 2}
	dst := make([]int64, 6)
	MergeBinary(dst, a, b)
	if !slices.Equal(dst, []int64{1, 1, 1, 2, 2, 2}) {
		t.Fatalf("MergeBinary ties = %v", dst)
	}
}

func TestMergeBinarySizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	MergeBinary(make([]int64, 1), []int64{1}, []int64{2})
}

// TestMergeBinaryMatchesBranchy checks the branch-free element loop (and the
// gallops between its rounds) against the one-branch-per-key baseline on
// random full-range lanes, tie-heavy lanes of eight values and runny lanes
// of interleaved bands, at every length of a from 0 to 300 against a
// random length of b, and at two 32 Ki-key lanes.
func TestMergeBinaryMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	// side is 0 for a and 1 for b: runny lanes hold alternate bands.
	lane := func(shape string, n, side int) []int64 {
		s, band := make([]int64, n), 1+rng.Intn(40)
		for i := range s {
			switch shape {
			case "random":
				s[i] = int64(rng.Uint64()) // negative and positive alike
			case "ties":
				s[i] = int64(rng.Intn(8)) - 4
			case "runny": // bands of band keys, a's and b's interleaved
				s[i] = int64(2*(i/band)+side)*64 + int64(rng.Intn(64))
			}
		}
		slices.Sort(s)
		return s
	}
	check := func(shape string, a, b []int64) {
		t.Helper()
		want := make([]int64, len(a)+len(b))
		mergeBinaryBranchy(want, a, b)
		got := make([]int64, len(a)+len(b))
		MergeBinary(got, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %d + %d keys: MergeBinary differs from the branchy merge", shape, len(a), len(b))
		}
	}
	for _, shape := range []string{"random", "ties", "runny"} {
		for na := 0; na <= 300; na++ {
			check(shape, lane(shape, na, 0), lane(shape, rng.Intn(301), 1))
		}
		check(shape, lane(shape, 1<<15, 0), lane(shape, 1<<15, 1))
	}
}
