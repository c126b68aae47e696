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

// spanKeys fills a with keys lo + r, r uniform over [0, 2^width) with its low
// stride bits cleared, and puts the span's two ends at a[0] and a[1] so that
// a load of two or more keys has exactly that width (for stride < width).
// The sum wraps when the span runs past MaxInt64.
func spanKeys(a []int64, lo int64, width, stride uint, seed uint64) {
	m := (uint64(1)<<width - 1) &^ (uint64(1)<<stride - 1)
	x := seed | 1
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = int64(uint64(lo) + x&m)
	}
	if len(a) >= 2 {
		a[0], a[1] = lo, int64(uint64(lo)+m)
	}
}

// TestRadixKeysWidths sorts loads of every span width 0…64 against
// slices.Sort, with the span at 0, straddling zero, and flush against either
// int64 extreme, at load sizes from RadixMinKeys to 64Ki.  Scratch is
// longer than the load: the words past n must come back untouched, and an
// all-equal load (width 0) must leave all of scratch untouched.
func TestRadixKeysWidths(t *testing.T) {
	const sentinel = 0x5a5a5a5a5a5a5a5a
	for _, n := range []int{RadixMinKeys, 1000, 1 << 13, 1 << 16} {
		a := make([]int64, n)
		scratch := make([]int64, n+8)
		for w := uint(0); w <= 64; w++ {
			span := uint64(1)<<w - 1
			// Straddling zero, lo is odd: its low bits, cleared from the offset
			// base, can push the offsets past the width's digits.
			los := []int64{math.MinInt64, int64(math.MaxInt64 - span), -int64(span >> 1)}
			if w < 64 {
				los = append(los, 0)
			}
			for _, lo := range los {
				spanKeys(a, lo, w, 0, uint64(n)<<8|uint64(w))
				want := slices.Clone(a)
				slices.Sort(want)
				for i := range scratch {
					scratch[i] = sentinel
				}
				RadixKeys(a, scratch)
				if !slices.Equal(a, want) {
					t.Fatalf("n=%d width=%d lo=%d: RadixKeys differs from stdlib sort", n, w, lo)
				}
				touched := scratch[n:]
				if w == 0 {
					touched = scratch
				}
				for i, v := range touched {
					if v != sentinel {
						t.Fatalf("n=%d width=%d lo=%d: scratch word %d of %d written", n, w, lo, len(scratch)-len(touched)+i, n)
					}
				}
			}
		}
	}
}

// TestRadixKeysNarrowUniverse exercises the span path: keys confined to a
// narrow span around zero sort in the few digits their offsets from the
// span's low end occupy.
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
