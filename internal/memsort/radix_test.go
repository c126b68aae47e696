package memsort

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRadixKeysMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, RadixMinKeys - 1, RadixMinKeys, 1000, 1 << 14} {
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63() - rng.Int63() // full range, negatives included
		}
		if n > 4 {
			a[0], a[1], a[2], a[3] = math.MaxInt64, math.MinInt64, 0, -1
		}
		want := append([]int64(nil), a...)
		slices.Sort(want)
		RadixKeys(a, make([]int64, n))
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: RadixKeys differs from stdlib sort", n)
		}
	}
}

// TestRadixKeysNarrowUniverse exercises the digit-skip path: keys that agree
// on most bytes still sort correctly with fewer scatter passes.
func TestRadixKeysNarrowUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, span := range []int64{1, 255, 1 << 16, 1 << 40} {
		n := 4096
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(span+1) - span/2
		}
		want := append([]int64(nil), a...)
		slices.Sort(want)
		RadixKeys(a, make([]int64, n))
		if !slices.Equal(a, want) {
			t.Fatalf("span=%d: RadixKeys differs from stdlib sort", span)
		}
	}
}

func TestRadixKeysScratchTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on undersized scratch")
		}
	}()
	RadixKeys(make([]int64, RadixMinKeys), make([]int64, RadixMinKeys-1))
}

// TestMergeBinaryGallopMatchesBranchy drives the galloping merge against the
// branchy baseline on shapes that exercise both the element loop and the
// gallop path (long single-source runs, heavy ties, skewed lengths).
func TestMergeBinaryGallopMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][2][]int64{
		{{}, {}},
		{{1, 2, 3}, {}},
		{{}, {1, 2, 3}},
		{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1}},
	}
	for i := 0; i < 50; i++ {
		na, nb := rng.Intn(2000), rng.Intn(2000)
		a, b := make([]int64, na), make([]int64, nb)
		span := int64(1) << uint(rng.Intn(40))
		for j := range a {
			a[j] = rng.Int63n(2*span+1) - span
		}
		for j := range b {
			b[j] = rng.Int63n(2*span+1) - span
		}
		slices.Sort(a)
		slices.Sort(b)
		cases = append(cases, [2][]int64{a, b})
		// Disjoint ranges force maximal runs through the gallop path.
		c := append([]int64(nil), a...)
		for j := range c {
			c[j] += 4 * span
		}
		cases = append(cases, [2][]int64{b, c}, [2][]int64{c, b})
	}
	for i, tc := range cases {
		a, b := tc[0], tc[1]
		want := make([]int64, len(a)+len(b))
		mergeBinaryBranchy(want, a, b)
		got := make([]int64, len(a)+len(b))
		MergeBinary(got, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: galloping merge differs from branchy baseline", i)
		}
	}
}

// TestPopRunMatchesPop checks the loser tree's galloped run emission against
// key-at-a-time Pop on lanes with long runs and heavy ties.
func TestPopRunMatchesPop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(9)
		lanes := make([][]int64, k)
		popLanes := make([][]int64, k)
		total := 0
		for i := range lanes {
			n := rng.Intn(500)
			l := make([]int64, n)
			base := int64(rng.Intn(4)) * 1000 // overlapping bands → tie pressure
			for j := range l {
				l[j] = base + rng.Int63n(50)
			}
			slices.Sort(l)
			lanes[i] = l
			popLanes[i] = append([]int64(nil), l...)
			total += n
		}
		want := make([]int64, total)
		pt := NewLoserTree(popLanes)
		for i := range want {
			want[i] = pt.Pop()
		}
		got := make([]int64, total)
		rt := NewLoserTree(lanes)
		for i := 0; i < total; {
			n := rt.PopRun(got[i:])
			if n < 1 {
				t.Fatal("PopRun emitted nothing")
			}
			i += n
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: PopRun stream differs from Pop stream", trial)
		}
	}
}
