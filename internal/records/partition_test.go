package records

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestRangeShard(t *testing.T) {
	splitters := []int64{10, 20}
	cases := []struct {
		key  int64
		want int
	}{
		{-5, 0}, {9, 0},
		{10, 1}, // equal to a splitter goes right
		{15, 1}, {19, 1},
		{20, 2}, {100, 2},
	}
	for _, tc := range cases {
		if got := RangeShard(tc.key, splitters); got != tc.want {
			t.Fatalf("RangeShard(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if got := RangeShard(42, nil); got != 0 {
		t.Fatalf("no splitters: shard %d, want 0", got)
	}

	// Every splitter count 0–17 against sort.Search's count of the
	// splitters ≤ key: random and duplicate splitters, the extremes among
	// them, and keys at, beside and between them and at both ends.
	rng := rand.New(rand.NewSource(59))
	for n := 0; n <= 17; n++ {
		for trial := 0; trial < 20; trial++ {
			splitters := make([]int64, n)
			for i := range splitters {
				switch rng.Intn(4) {
				case 0:
					splitters[i] = int64(rng.Uint64())
				case 1:
					splitters[i] = int64(rng.Intn(5)) // duplicates
				default:
					splitters[i] = []int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)]
				}
			}
			slices.Sort(splitters)
			keys := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
			for _, s := range splitters {
				keys = append(keys, s-1, s, s+1) // wraps at the extremes, which are keys too
			}
			for range 20 {
				keys = append(keys, int64(rng.Uint64()))
			}
			for _, k := range keys {
				want := sort.Search(n, func(i int) bool { return k < splitters[i] })
				if got := RangeShard(k, splitters); got != want {
					t.Fatalf("splitters %v: RangeShard(%d) = %d, want %d", splitters, k, got, want)
				}
			}
		}
	}
}
