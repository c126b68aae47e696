// Package memsort provides the in-core sorting kernels used inside every
// pass of the PDM algorithms: a comparison introsort (Keys) and an LSD
// radix sort (RadixKeys) for raw key slices, binary and k-way
// (loser-tree) merges, and small utilities (sortedness checks, reversal,
// min/max).
//
// The PDM analyses in the paper charge only I/O; these kernels are the
// "local computation" assumed to be free.  They are nevertheless written to
// run fast, since the simulator executes them for real.  Two kernel
// families exist because their costs cross: the introsort is in-place and
// wins on small loads, while the radix sort buys ~3x on memory-load-sized
// uniform keys for one load of scratch (internal/par's Kernel enum
// dispatches between them, and internal/plan prices the choice).  Both
// are stable on the paths that need stability and produce identical
// sorted output, so the choice is invisible to everything but the wall
// clock.  The binary merge (MergeBinary) is adaptive: it detects
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
