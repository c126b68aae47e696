package memsort

import (
	"fmt"
	"slices"
	"testing"
)

// Paired kernel microbenchmarks: the comparison introsort vs the LSD
// radix kernel (vs stdlib slices.Sort as the external baseline) over key
// shapes × memory-load sizes, the branchy vs galloping binary merge, and
// the loser tree vs binary rounds k-way merge.
// CI runs every BenchmarkKernel* with -benchtime 1x as a smoke test; bench/
// records the kernels' rates per run as the memsort.probe.* metrics.

// benchSizes are memory-load sizes: a serve-sized merge tail (512), the
// default machine M (4096), and larger loads where the radix kernel is
// bandwidth-bound rather than overhead-bound.
var benchSizes = []int{512, 4096, 32768, 65536}

// benchShapes are key shapes that differ in what the radix kernel's pass
// count depends on: the span of the load and its constant low bits.  key
// maps one uniform random word to a key.
var benchShapes = []struct {
	name string
	key  func(x uint64) int64
}{
	// WorkloadSpec{Kind: "uniform"}: [−2^40, 2^40], the keys bench/ sorts.
	{"uniform", func(x uint64) int64 { return int64(x%(1<<41+1)) - 1<<40 }},
	{"pos62", pos62Key},
	{"narrow", func(x uint64) int64 { return int64(x >> 44) }},              // [0, 2^20)
	{"strided", func(x uint64) int64 { return int64(x>>2) &^ (1<<12 - 1) }}, // multiples of 2^12
}

// pos62Key is the shape of fillBenchKeys: positive 62-bit keys.
func pos62Key(x uint64) int64 { return int64(x >> 2) }

func fillShapeKeys(buf []int64, seed uint64, key func(uint64) int64) {
	x := seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = key(x)
	}
}

func fillBenchKeys(buf []int64, seed uint64) { fillShapeKeys(buf, seed, pos62Key) }

func benchSort(b *testing.B, n int, sort func(a []int64)) {
	benchSortShape(b, n, pos62Key, sort)
}

// benchSortShape times sort on fresh loads of n keys.  Loads are filled a
// batch of up to 64Ki keys at a time outside the timer: stopping the timer
// reads the memory stats with the world stopped, which would swamp a 512-key
// sort if paid per load.
func benchSortShape(b *testing.B, n int, key func(uint64) int64, sort func(a []int64)) {
	b.Helper()
	batch := max(1, 1<<16/n)
	buf := make([]int64, batch*n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		b.StopTimer()
		for j := range batch {
			fillShapeKeys(buf[j*n:(j+1)*n], uint64(i+j), key)
		}
		b.StartTimer()
		for j := 0; j < batch && i+j < b.N; j++ {
			sort(buf[j*n : (j+1)*n])
		}
	}
}

// benchKernel runs sort over every shape × size, as <shape>/<size>.
func benchKernel(b *testing.B, sort func(a, scratch []int64)) {
	for _, sh := range benchShapes {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/%d", sh.name, n), func(b *testing.B) {
				scratch := make([]int64, n)
				benchSortShape(b, n, sh.key, func(a []int64) { sort(a, scratch) })
			})
		}
	}
}

func BenchmarkKernelSortIntro(b *testing.B) { benchKernel(b, func(a, _ []int64) { Keys(a) }) }

func BenchmarkKernelSortRadix(b *testing.B) { benchKernel(b, RadixKeys) }

func BenchmarkKernelSortStdlib(b *testing.B) {
	benchKernel(b, func(a, _ []int64) { slices.Sort(a) })
}

// BenchmarkSelect pairs Select with slices.Sort on a random sample the size
// the facade's selection front draws for topk-file (plan.SelectSample of
// 4Mi keys, 16·⌊∛(2⁴⁴)⌋), at the index TopK(K = 100) reads (target rank
// 100 + SelectDelta = 204, scaled by s/n) and at the median.  Sorting then
// reading one index (the same cost at any rank) is what the facade did
// before Select replaced it.
func BenchmarkSelect(b *testing.B) {
	const s = 416_112
	b.Run("select-topk", func(b *testing.B) { benchSort(b, s, func(a []int64) { Select(a, 20) }) })
	b.Run("select-median", func(b *testing.B) { benchSort(b, s, func(a []int64) { Select(a, s/2) }) })
	b.Run("sort", func(b *testing.B) { benchSort(b, s, slices.Sort[[]int64, int64]) })
}

// benchMerge times one merge shape.  "random" interleaves uniformly — the
// galloping merge's worst case, where it pays its detection comparisons
// for nothing.  "runs" block-interleaves (alternating bands of 1024 keys
// land wholly in one input), the shape skewed partitions and rank-cut
// merges produce, where galloping replaces whole bands with one binary
// search and a copy.
func benchMerge(b *testing.B, runny bool, merge func(dst, a, c []int64)) {
	b.Helper()
	const n = 1 << 15
	a := make([]int64, n)
	c := make([]int64, n)
	if runny {
		const band = 1024
		for i := range a {
			block := int64(i / band)
			a[i] = 2*band*block + int64(i%band)
			c[i] = 2*band*block + band + int64(i%band)
		}
	} else {
		fillBenchKeys(a, 1)
		fillBenchKeys(c, 2)
		slices.Sort(a)
		slices.Sort(c)
	}
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge(dst, a, c)
	}
}

func BenchmarkKernelMergeBranchy(b *testing.B) {
	b.Run("random", func(b *testing.B) { benchMerge(b, false, mergeBinaryBranchy) })
	b.Run("runs", func(b *testing.B) { benchMerge(b, true, mergeBinaryBranchy) })
}

func BenchmarkKernelMergeGallop(b *testing.B) {
	b.Run("random", func(b *testing.B) { benchMerge(b, false, MergeBinary) })
	b.Run("runs", func(b *testing.B) { benchMerge(b, true, MergeBinary) })
}

// BenchmarkKernelMergeKWay pairs MultiMerge's loser tree with binary rounds
// (mergeBinaryRounds) on k ∈ {4, 16, 64} sorted lanes of 16Ki keys each, as
// k=<k>/loser-tree and k=<k>/binary-rounds.  It measures the CPU time of the
// in-memory k-way merge alone; the PDM I/O of a merge pass is the same for
// either kernel.  Both merges must produce the sorted concatenation before
// anything is timed.  On a 2-vCPU Intel Xeon VM, six runs of 30 merges
// each, binary rounds took 0.68–0.83× the loser tree's time at k = 4,
// 0.79–0.86× at k = 16 and 0.89–1.03× at k = 64.  The loser tree's case is
// memory, not CPU time: it allocates no key buffers and also merges
// streams (StreamMerge), where binary rounds allocates a full-size buffer
// per round.
func BenchmarkKernelMergeKWay(b *testing.B) {
	const per = 1 << 14
	merges := []struct {
		name  string
		merge func(dst []int64, lanes [][]int64)
	}{{"loser-tree", MultiMerge}, {"binary-rounds", mergeBinaryRounds}}
	for _, k := range []int{4, 16, 64} {
		lanes := make([][]int64, k)
		var want []int64
		for i := range lanes {
			lanes[i] = make([]int64, per)
			fillBenchKeys(lanes[i], uint64(i))
			slices.Sort(lanes[i])
			want = append(want, lanes[i]...)
		}
		slices.Sort(want)
		dst := make([]int64, k*per)
		for _, m := range merges {
			clear(dst)
			if m.merge(dst, lanes); !slices.Equal(dst, want) {
				b.Fatalf("k=%d: %s output differs from the sorted concatenation", k, m.name)
			}
		}
		for _, m := range merges {
			b.Run(fmt.Sprintf("k=%d/%s", k, m.name), func(b *testing.B) {
				b.SetBytes(int64(k * per * 8))
				for range b.N {
					m.merge(dst, lanes)
				}
			})
		}
	}
}

// mergeBinaryRounds merges k sorted lanes by ⌈log₂ k⌉ rounds of pairwise
// MergeBinary over the data, the baseline BenchmarkKernelMergeKWay times
// the loser tree against.  Identical output, up to ⌈log₂ k⌉ + 1 moves of
// every key.
func mergeBinaryRounds(dst []int64, lanes [][]int64) {
	cur := slices.Clone(lanes)
	for len(cur) > 1 {
		next := cur[:0:0]
		for i := 0; i+1 < len(cur); i += 2 {
			merged := make([]int64, len(cur[i])+len(cur[i+1]))
			MergeBinary(merged, cur[i], cur[i+1])
			next = append(next, merged)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	copy(dst, cur[0])
}

// mergeBinaryBranchy is the pre-gallop element-at-a-time merge, kept as the
// ablation and benchmark baseline for MergeBinary (BenchmarkKernelMerge*).
// Identical output, one data-dependent branch per key.
func mergeBinaryBranchy(dst, a, b []int64) {
	if len(dst) != len(a)+len(b) {
		panic("memsort: mergeBinaryBranchy destination size mismatch")
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
