// Package memsort provides the in-core sorting kernels used inside every
// pass of the PDM algorithms: a comparison introsort (Keys) and an LSD
// radix sort (RadixKeys) for raw key slices, an MSD radix split that stops
// at block exactness (RadixBlocks: every aligned block holds the keys of
// its ranks, for consumers that re-sort each block), binary and k-way
// (loser-tree) merges, small utilities (sortedness checks, reversal,
// min/max), and the repository's one selection routine: Select(a, k)
// leaves a sorted a's k-th key at a[k], a[:k] ≤ a[k] ≤ a[k+1:], in
// expected O(n) and O(n log n) at worst (the facade's top-K and quantile
// thresholds are selected from their sample this way, never sorted).
//
// The PDM analyses in the paper charge only I/O; these kernels are the
// "local computation" assumed to be free.  They are nevertheless written to
// run fast, since the simulator executes them for real.  Two sorts exist
// because their costs cross: the introsort is in-place and wins on loads
// under RadixMinKeys, while the radix sort, scattering only the 9-bit
// digits of the load's key span, buys ~5x on 4Ki–64Ki uniform keys for one
// load of scratch (RadixKeys takes the introsort below the threshold, and
// internal/par borrows the scratch from the pdm arena).  Both sort
// identically, so only the wall clock sees the choice.
// The binary merge (MergeBinary) is adaptive: it detects
// one-sided runs with a single comparison per round — the inputs are
// sorted, so "the next k keys of b all beat a's head" is one compare —
// and gallops past them with a binary search and a bulk copy;
// the plain element loop survives in bench_test.go as the benchmark
// baseline (BenchmarkKernelMerge* pairs them on random and runs-shaped
// inputs).  The k-way merge (MultiMerge, over a LoserTree whose nodes
// store the losers' keys) is adaptive the way TimSort's min-gallop is:
// MergeRuns gallops with PopRun — one runner-up search, one gallop, one
// bulk copy per run — while the lanes hand over long runs, and gives up
// for good when a window of calls emits under two keys per call, which is
// what uniformly interleaved lanes do; MultiMerge then pops key by key
// (PopAll), and internal/par's radix kernel instead takes the lanes'
// unconsumed suffixes (Rest) and radix-sorts them in the output tail.
// BenchmarkKernelMultiMerge in internal/par pairs the shapes.
//
// Accounting contract: nothing here touches the pdm Array — no I/O is
// charged and no arena memory is allocated; callers sort buffers they
// already own.  Parallel execution of these kernels lives in internal/par,
// which is bit-identical to the serial forms.
package memsort
