package memsort

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func splitRandLanes(rng *rand.Rand, k, maxLen int, span int64) [][]int64 {
	lanes := make([][]int64, k)
	for i := range lanes {
		n := rng.Intn(maxLen + 1)
		lane := make([]int64, n)
		for j := range lane {
			lane[j] = rng.Int63n(2*span) - span
		}
		Keys(lane)
		lanes[i] = lane
	}
	return lanes
}

func TestCutLanesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lanes := splitRandLanes(rng, 1+rng.Intn(6), 40, 16) // small span forces ties
		total := 0
		for _, l := range lanes {
			total += len(l)
		}
		for _, rank := range []int{-3, 0, 1, total / 3, total / 2, total, total + 5} {
			cuts := CutLanes(lanes, rank)
			want := rank
			if want < 0 {
				want = 0
			}
			if want > total {
				want = total
			}
			sum := 0
			prefixMax := int64(math.MinInt64)
			suffixMin := int64(math.MaxInt64)
			for i, l := range lanes {
				c := cuts[i]
				if c < 0 || c > len(l) {
					t.Fatalf("cut %d out of range for lane of %d", c, len(l))
				}
				sum += c
				if c > 0 && l[c-1] > prefixMax {
					prefixMax = l[c-1]
				}
				if c < len(l) && l[c] < suffixMin {
					suffixMin = l[c]
				}
			}
			if sum != want {
				t.Fatalf("rank %d: cuts sum to %d, want %d", rank, sum, want)
			}
			if prefixMax > suffixMin {
				t.Fatalf("rank %d: prefix max %d exceeds suffix min %d", rank, prefixMax, suffixMin)
			}
		}
	}
}

func TestCutLanesTilesMultiMerge(t *testing.T) {
	// Concatenating the per-span merges of the cut sub-lanes must reproduce
	// MultiMerge exactly, for any span count.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		lanes := splitRandLanes(rng, 1+rng.Intn(5), 50, 8)
		total := 0
		for _, l := range lanes {
			total += len(l)
		}
		want := make([]int64, total)
		MultiMerge(want, lanes)
		for _, spans := range []int{1, 2, 3, 7} {
			got := make([]int64, total)
			prev := make([]int, len(lanes))
			prevRank := 0
			for s := 1; s <= spans; s++ {
				rank := s * total / spans
				cuts := CutLanes(lanes, rank)
				sub := make([][]int64, len(lanes))
				for i, l := range lanes {
					if cuts[i] < prev[i] {
						t.Fatalf("cuts not monotone: lane %d went %d -> %d", i, prev[i], cuts[i])
					}
					sub[i] = l[prev[i]:cuts[i]]
				}
				MultiMerge(got[prevRank:rank], sub)
				prev, prevRank = cuts, rank
			}
			if !slices.Equal(got, want) {
				t.Fatalf("spans=%d: tiled merge differs from MultiMerge", spans)
			}
		}
	}
}
