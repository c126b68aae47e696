package par

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/memsort"
)

// shapedLanes builds k sorted lanes of about per keys in one of the shapes
// the adaptive merge has to get right: the three of mergeBenchLanes, plus
// the degenerate and sentinel-laden ones.
func shapedLanes(shape string, k, per int) [][]int64 {
	switch shape {
	case "uniform", "runs", "disjoint":
		return mergeBenchLanes(shape, k, per)
	}
	lanes := make([][]int64, k)
	for i := range lanes {
		lane := make([]int64, per)
		switch shape {
		case "all-equal":
			for j := range lane {
				lane[j] = 42
			}
		case "duplicates-heavy": // seven distinct values, every lane holds all
			fillBenchKeys(lane, uint64(i+1))
			for j := range lane {
				lane[j] %= 7
			}
		case "empty-lanes": // two lanes in three are empty, lengths ragged
			if i%3 != 0 {
				lane = nil
			} else {
				lane = lane[:per-i%5]
				fillBenchKeys(lane, uint64(i+1))
			}
		case "max-padded": // the facade's padding sentinels close the lanes
			fillBenchKeys(lane, uint64(i+1))
			for j := per - per/4 - i%3; j < per; j++ {
				lane[j] = math.MaxInt64
			}
		case "min-int64":
			fillBenchKeys(lane, uint64(i+1))
			for j := 0; j < per/4+i%3; j++ {
				lane[j] = math.MinInt64
			}
			for j := per / 2; j < per; j++ {
				lane[j] = -lane[j]
			}
		default:
			panic("unknown lane shape " + shape)
		}
		memsort.Keys(lane)
		lanes[i] = lane
	}
	return lanes
}

var laneShapes = []string{
	"uniform", "runs", "disjoint", "all-equal", "duplicates-heavy",
	"empty-lanes", "max-padded", "min-int64",
}

// checkMerges runs every merge entry point — the exported MultiMerge and
// the partitioned body at each forced width — over lanes, asserting each
// output equals the sorted concatenation and the lanes come back untouched
// (bench/'s probe and the mmap backend's borrowed views re-read them).
func checkMerges(t *testing.T, name string, lanes [][]int64, widths []int) {
	t.Helper()
	var want []int64
	orig := make([][]int64, len(lanes))
	for i, l := range lanes {
		want = append(want, l...)
		orig[i] = slices.Clone(l)
	}
	slices.Sort(want)
	dst := make([]int64, len(want))
	check := func(what string) {
		t.Helper()
		if !slices.Equal(dst, want) {
			t.Fatalf("%s: %s differs from the sorted concatenation", name, what)
		}
		for i := range lanes {
			if !slices.Equal(lanes[i], orig[i]) {
				t.Fatalf("%s: %s modified lane %d", name, what, i)
			}
		}
		clear(dst)
	}
	for _, w := range widths {
		p := New(w)
		p.MultiMerge(dst, lanes)
		check(fmt.Sprintf("MultiMerge(workers=%d)", w))
		if w > 1 {
			p.multiMergeBody(dst, lanes, w, p.mergeSegment)
			check(fmt.Sprintf("multiMergeBody(w=%d)", w))
			p.multiMergeBody(dst, lanes, w, memsort.MultiMerge)
			check(fmt.Sprintf("multiMergeBody(w=%d, pops)", w))
		}
	}
}

// TestMultiMergeDifferential is the differential test of the adaptive k-way
// merge: every lane shape × workers {1, 2, 3, 8} against
// slices.Sort, at a pass-2 group's lane count and at a handful of lanes.
func TestMultiMergeDifferential(t *testing.T) {
	for _, shape := range laneShapes {
		for _, dims := range [][2]int{{64, 300}, {5, 1000}, {3, 17}} {
			name := fmt.Sprintf("%s/%dx%d", shape, dims[0], dims[1])
			checkMerges(t, name, shapedLanes(shape, dims[0], dims[1]), []int{1, 2, 3, 8})
		}
	}
	checkMerges(t, "no lanes", nil, []int{1, 2})
	checkMerges(t, "one lane", [][]int64{{1, 2, 3}}, []int{1, 2})
}

// TestMultiMergeAboveGrainForks checks the exported merge takes the
// partitioned path once two workers get a grain each — and not before.
func TestMultiMergeAboveGrainForks(t *testing.T) {
	lanes := shapedLanes("uniform", 64, 2*mergeGrain/64)
	p := New(3)
	dst := make([]int64, 2*mergeGrain)
	p.MultiMerge(dst, lanes)
	if s, _, _ := p.Counters(); s != 1 || !memsort.IsSorted(dst) {
		t.Fatalf("two grains gave %d sections, want 1", s)
	}
	lanes[0] = lanes[0][1:]
	p.MultiMerge(dst[1:], lanes)
	if s, _, _ := p.Counters(); s != 1 {
		t.Fatal("a merge under two grains forked")
	}
}

// TestMergeModeSwitch pins the adaptive decision itself: on uniformly
// interleaved lanes the tree leaves gallop mode within the first windows, on
// runs-shaped and disjoint lanes it never does.
func TestMergeModeSwitch(t *testing.T) {
	const k, per = 64, 1024
	dst := make([]int64, k*per)
	if n := memsort.NewLoserTree(shapedLanes("uniform", k, per)).MergeRuns(dst); n > len(dst)/100 {
		t.Fatalf("uniform lanes galloped through %d of %d keys", n, len(dst))
	}
	for _, shape := range []string{"runs", "disjoint", "all-equal"} {
		if n := memsort.NewLoserTree(shapedLanes(shape, k, per)).MergeRuns(dst); n != len(dst) {
			t.Fatalf("%s lanes left gallop mode after %d of %d keys", shape, n, len(dst))
		}
	}
}

// FuzzMultiMerge feeds the merge entry points fuzzer-shaped lane sets: the
// input bytes pick the lane count and, per lane, a length (up to ~1000 keys,
// so the radix tail is reachable), a key generator (wide, narrow-range for
// ties, ascending bands, constant) and how many MinInt64/MaxInt64 sentinels
// bracket it.  Every width must produce the sorted concatenation
// and leave the lanes alone.
func FuzzMultiMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0x93, 1, 5, 0x93, 2, 6, 0x93, 3, 7, 0x93, 4, 8, 0x93, 5, 9, 0x93, 6, 1, 0x93, 7, 2}) // uniform, long
	f.Add([]byte{3, 0x42, 9, 0, 0x42, 9, 1, 0x42, 9, 2})                                                 // ascending bands
	f.Add([]byte{4, 0x31, 1, 7, 0, 0, 0, 0x71, 2, 7, 0xf3, 3, 3})                                        // ties, an empty lane, sentinels
	f.Add([]byte{2, 0x23, 4, 4, 0x23, 4, 4})                                                             // constant lanes
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		lanes := make([][]int64, int(next())%9)
		for i := range lanes {
			shape, seed, sent := next(), next(), next()
			lane := make([]int64, int(shape>>4)*64+int(seed)%64)
			fillBenchKeys(lane, uint64(seed))
			for j := range lane {
				switch shape & 3 {
				case 1:
					lane[j] %= 16
				case 2:
					lane[j] = int64(seed)<<12 + int64(j)
				case 3:
					lane[j] = int64(seed)
				}
			}
			for j := 0; j < int(sent&7) && j < len(lane); j++ {
				lane[j] = math.MinInt64
			}
			for j := 0; j < int(sent>>4) && j < len(lane); j++ {
				lane[len(lane)-1-j] = math.MaxInt64
			}
			memsort.Keys(lane)
			lanes[i] = lane
		}
		checkMerges(t, "fuzz", lanes, []int{1, 2, 3})
	})
}
