package memsort

import (
	"slices"
	"testing"
)

// Paired kernel microbenchmarks: the comparison introsort vs the LSD
// radix kernel (vs stdlib slices.Sort as the external baseline) on
// uniform random int64 keys at memory-load sizes, and the branchy vs
// galloping binary merge.  CI runs every BenchmarkKernel* with -benchtime
// 100x as a smoke test; bench/ records the kernels' rates per run as the
// memsort.probe.* metrics.

// benchSizes are memory-load sizes: the default machine M (4096) and a
// larger load where the radix win is cache-bound rather than
// overhead-bound.
var benchSizes = []struct {
	name string
	n    int
}{
	{"4096", 4096},
	{"65536", 65536},
}

func fillBenchKeys(buf []int64, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = int64(x >> 2)
	}
}

func benchSort(b *testing.B, n int, sort func(a []int64)) {
	b.Helper()
	a := make([]int64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillBenchKeys(a, uint64(i))
		b.StartTimer()
		sort(a)
	}
}

func BenchmarkKernelSortIntro(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			benchSort(b, sz.n, Keys)
		})
	}
}

func BenchmarkKernelSortRadix(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			scratch := make([]int64, sz.n)
			benchSort(b, sz.n, func(a []int64) { RadixKeys(a, scratch) })
		})
	}
}

func BenchmarkKernelSortStdlib(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			benchSort(b, sz.n, slices.Sort[[]int64, int64])
		})
	}
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
