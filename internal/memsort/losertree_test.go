package memsort

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomLanes(rng *rand.Rand, k, maxLen int) [][]int64 {
	lanes := make([][]int64, k)
	for i := range lanes {
		n := rng.Intn(maxLen + 1)
		lane := make([]int64, n)
		for j := range lane {
			lane[j] = rng.Int63n(100)
		}
		slices.Sort(lane)
		lanes[i] = lane
	}
	return lanes
}

func flattenSorted(lanes [][]int64) []int64 {
	var all []int64
	for _, l := range lanes {
		all = append(all, l...)
	}
	slices.Sort(all)
	return all
}

func TestMultiMergeAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(17) // includes non-powers of two
		lanes := randomLanes(rng, k, 50)
		want := flattenSorted(lanes)
		dst := make([]int64, len(want))
		MultiMerge(dst, lanes)
		if !slices.Equal(dst, want) {
			t.Fatalf("trial %d (k=%d): mismatch", trial, k)
		}
	}
}

func TestMultiMergeEdgeCases(t *testing.T) {
	// Zero lanes.
	MultiMerge(nil, nil)
	// One lane.
	dst := make([]int64, 3)
	MultiMerge(dst, [][]int64{{1, 2, 3}})
	if !slices.Equal(dst, []int64{1, 2, 3}) {
		t.Fatalf("one lane = %v", dst)
	}
	// Two lanes routes to binary merge.
	dst = make([]int64, 4)
	MultiMerge(dst, [][]int64{{2, 4}, {1, 3}})
	if !slices.Equal(dst, []int64{1, 2, 3, 4}) {
		t.Fatalf("two lanes = %v", dst)
	}
	// All-empty lanes.
	MultiMerge(nil, [][]int64{{}, {}, {}})
}

func TestMultiMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	MultiMerge(make([]int64, 1), [][]int64{{1}, {2}, {3}})
}

func TestLoserTreeStability(t *testing.T) {
	// Equal keys must be emitted in lane order.
	lanes := [][]int64{{5, 5}, {5}, {5, 5, 5}}
	tree := NewLoserTree(lanes)
	order := make([]int, 0, 6)
	for !tree.Empty() {
		// Identify the winning lane before popping by inspecting heads.
		w := tree.node[0].lane
		order = append(order, w)
		tree.Pop()
	}
	want := []int{0, 0, 1, 2, 2, 2}
	if !slices.Equal(order, want) {
		t.Fatalf("emission lane order = %v, want %v", order, want)
	}
}

func TestLoserTreeEmpty(t *testing.T) {
	tree := NewLoserTree(nil)
	if !tree.Empty() {
		t.Fatal("tree over no lanes is not empty")
	}
	tree = NewLoserTree([][]int64{{}, {}})
	if !tree.Empty() {
		t.Fatal("tree over empty lanes is not empty")
	}
}

func TestMultiMergeBinaryMatchesLoserTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		lanes := randomLanes(rng, k, 30)
		want := flattenSorted(lanes)
		d1 := make([]int64, len(want))
		d2 := make([]int64, len(want))
		MultiMerge(d1, lanes)
		MultiMergeBinary(d2, lanes)
		if !slices.Equal(d1, want) || !slices.Equal(d2, want) {
			t.Fatalf("trial %d: loser=%v binary=%v want=%v", trial, d1, d2, want)
		}
	}
	MultiMergeBinary(nil, nil)
}

func TestMultiMergeBinarySizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	MultiMergeBinary(make([]int64, 5), [][]int64{{1}})
}

func TestMultiMergeQuickProperty(t *testing.T) {
	// Property: merging any k sorted lanes equals sorting the concatenation.
	f := func(raw [][]int64) bool {
		lanes := make([][]int64, len(raw))
		for i, l := range raw {
			lanes[i] = append([]int64(nil), l...)
			slices.Sort(lanes[i])
		}
		want := flattenSorted(lanes)
		dst := make([]int64, len(want))
		MultiMerge(dst, lanes)
		return slices.Equal(dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
