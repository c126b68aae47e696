package memsort

import (
	"math/rand"
	"slices"
	"testing"
)

// selectInputs are the shapes Select is checked on: random keys, the
// presorted and pipe shapes that defeat naive pivots, the duplicate-heavy
// shapes three-way partitioning exists for, and a permutation built to
// defeat this kernel's own median-of-three pivot.
var selectInputs = []struct {
	name string
	gen  func(n int) []int64
}{
	{"uniform", func(n int) []int64 {
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63() - rng.Int63()
		}
		return a
	}},
	{"sorted", func(n int) []int64 { return keysOf(n, func(i int) int64 { return int64(i) }) }},
	{"reverse", func(n int) []int64 { return keysOf(n, func(i int) int64 { return int64(n - i) }) }},
	{"organ", func(n int) []int64 { return keysOf(n, func(i int) int64 { return int64(min(i, n-1-i)) }) }},
	{"all-equal", func(n int) []int64 { return keysOf(n, func(int) int64 { return 7 }) }},
	{"two-valued", func(n int) []int64 { return keysOf(n, func(i int) int64 { return int64(i*7919%3) / 2 }) }},
	{"few-distinct", func(n int) []int64 { return keysOf(n, func(i int) int64 { return int64(i * 7919 % 5) }) }},
	{"killer", func(n int) []int64 { return medianOf3Killer(n, 2*depthBudget(n)) }},
}

func keysOf(n int, f func(i int) int64) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = f(i)
	}
	return a
}

// medianOf3Killer returns a permutation of 0..n-1 on which each of Select's
// first `levels` partition3 steps toward the top rank peels off only the
// two smallest keys: quickselect's quadratic case.  It runs the real
// partition3 over keys encoded as class<<32 | original position — per level
// the subarray's first key is made the smallest remaining (class 0), its
// middle key the next (class 1) and every other key "large" (class 2) —
// which fixes every comparison partition3 makes.  Ranks are handed out in
// that order; the keys left afterwards get theirs in position order.
func medianOf3Killer(n, levels int) []int64 {
	const shift, pos = 32, 1<<32 - 1
	a := keysOf(n, func(i int) int64 { return 2<<shift | int64(i) })
	rank := make([]int64, n)
	next := int64(0)
	assign := func(v *int64, class int64) {
		*v = class<<shift | *v&pos
		rank[*v&pos] = next
		next++
	}
	lo := 0
	for ; levels > 0 && n-lo > insertionThreshold; levels-- {
		sub := a[lo:]
		assign(&sub[0], 0)
		assign(&sub[len(sub)/2], 1)
		if lt, gt := partition3(sub); lt != 1 || gt != 2 {
			panic("medianOf3Killer: partition3 no longer keeps the two smallest keys apart")
		}
		lo += 2
	}
	for i := range a[lo:] {
		assign(&a[lo+i], 2)
	}
	return rank
}

// multiset fingerprints a key multiset: an order-independent sum of mixed
// keys, so a lost, duplicated or altered key changes it (with overwhelming
// probability) while any reordering does not.  O(n), where re-sorting for
// every rank of every input would dominate the suite.
func multiset(a []int64) uint64 {
	var sum uint64
	for _, v := range a {
		z := uint64(v) + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		sum += z ^ (z >> 31)
	}
	return sum
}

// checkSelect runs Select(a, k) on a copy of in and checks the contract
// against the sorted copy want: the returned key and a[k] are want[k], the
// keys before k are ≤ it and those after are ≥ it, and the multiset is
// unchanged.
func checkSelect(t *testing.T, in, want []int64, k int) {
	t.Helper()
	a := slices.Clone(in)
	if got := Select(a, k); got != want[k] || a[k] != want[k] {
		t.Fatalf("n=%d k=%d: Select = %d (a[k] = %d), want %d", len(in), k, got, a[k], want[k])
	}
	for i, v := range a {
		if (i < k && v > a[k]) || (i > k && v < a[k]) {
			t.Fatalf("n=%d k=%d: a[%d] = %d on the wrong side of a[k] = %d", len(in), k, i, v, a[k])
		}
	}
	if multiset(a) != multiset(want) {
		t.Fatalf("n=%d k=%d: Select changed the multiset", len(in), k)
	}
}

// checkSelectRanks checks Select at each of ranks(n) on every input shape
// of each size.
func checkSelectRanks(t *testing.T, sizes []int, ranks func(n int) []int) {
	for _, in := range selectInputs {
		t.Run(in.name, func(t *testing.T) {
			for _, n := range sizes {
				keys := in.gen(n)
				want := slices.Clone(keys)
				slices.Sort(want)
				for _, k := range ranks(n) {
					checkSelect(t, keys, want, k)
				}
			}
		})
	}
}

func TestSelectEveryRank(t *testing.T) {
	checkSelectRanks(t, []int{1, 2, 3, 16, 17, 100, 4097}, func(n int) []int {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	})
}

func TestSelectRankSpread(t *testing.T) {
	checkSelectRanks(t, []int{1 << 16}, func(n int) []int {
		return []int{0, 1, 20, 1000, n/3 - 1, n / 2, n - 1000, n - 2, n - 1}
	})
}

// TestSelectKillerFallsBack is the depth-budget guard: on the killer, a
// quickselect without the budget would partition n/2 times, ~n²/4 ≈ 2.7e11
// key visits at 1Mi keys.  Select must instead spend its budget of
// 2·(⌊log₂ n⌋+1) partitions and hand the rest — nearly all of it, since
// every level peeled off two keys — to Keys, once.
func TestSelectKillerFallsBack(t *testing.T) {
	const n = 1 << 20
	budget := depthBudget(n)
	keys := medianOf3Killer(n, budget)
	defer func(f func([]int64)) { selectFallback = f }(selectFallback)
	var sizes []int
	selectFallback = func(a []int64) {
		sizes = append(sizes, len(a))
		Keys(a)
	}
	if got := Select(keys, n-1); got != n-1 {
		t.Fatalf("Select(killer, n-1) = %d, want %d", got, n-1)
	}
	if !slices.Equal(sizes, []int{n - 2*budget}) {
		t.Fatalf("fallback sizes %v, want one fallback of %d keys after %d levels", sizes, n-2*budget, budget)
	}
}
