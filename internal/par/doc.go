// Package par is the shared worker-pool compute layer between the in-core
// kernels (internal/memsort) and the PDM algorithms: memory-load sorting,
// k-way merging (adaptive; partitioned by splitters when it forks),
// in-place symmetric merging, and scatter/gather primitives (transpose,
// radix-style histograms, For).
//
// The grain rule.  Parallelism inside one operation is taken only when
// every worker's share amortises the fork/join and the work the parallel
// form adds; below that grain the pool calls the serial memsort kernel
// directly, and above it the operation is as wide as its size pays for,
// never wider than the pool.  The grains are unexported constants in
// par.go, one per kernel, chosen from the paired benchmarks in
// bench_test.go at the sizes that actually run (4Ki–64Ki-key loads, and
// 1Mi) — not flags, fields or variables.  A memory load sorts and merges
// serially; above the grain there is one parallel sort path for both
// kernels (per-worker serial sorts of contiguous segments, one
// splitter-partitioned merge, a copy back) plus the scratch-free
// symmetric-merge rounds the comparison kernel uses when no scratch is
// given.
//
// Each pool carries a compute Kernel.  It picks the memory-load sort —
// KernelComparison the introsort, KernelRadix the LSD radix sort — and how
// a k-way merge ends: every merge gallops (memsort's MergeRuns) while the
// lanes hand over long runs and leaves gallop mode for good when the mean
// run collapses to about a key, as it does on uniform keys; the radix
// kernel then copies the lanes' suffixes to the output tail and radix-sorts
// it, the comparison kernel pops the loser tree key by key.  KernelAuto
// picks radix at and above a fixed size threshold (AutoKernel), which
// pdm.NewWithDisks applies to the machine's memory-load size; no layer
// above this package carries a kernel option, and like the worker count
// the kernel may change only the wall clock.
//
// The layer is invisible to the PDM cost model and to the algorithms'
// results: every operation produces output bit-identical to its serial
// counterpart for any worker count and any kernel — sorting and merging
// int64 multisets have a unique result, and the partition boundaries are
// exact ranks — so parallelism changes wall-clock only, never pass
// counts, statistics, or I/O traces.  No operation allocates from the pdm
// Arena: the sorts and merges are in-place or write caller-provided
// buffers, keeping the paper's memory envelope untouched.  The radix
// kernel does need one load of Go-heap scratch, for a sort and for the tail
// of a merge alike; it borrows from a small free list capped at
// maxPooledScratchKeys per buffer so a single huge sort cannot pin its
// scratch forever (mirroring the FileDisk buffer pool's cap).  Merge lanes
// are only ever read.
//
// A Pool is safe for use from one algorithm goroutine at a time per
// operation; distinct operations on one pool must not run concurrently
// (in-tree callers drive it from the single algorithm goroutine, exactly
// like a stream.Reader).  The pool records observability counters —
// parallel sections entered, their wall time, and the summed per-worker
// busy time — that the pdm Array folds into its Stats, where they are
// scheduling-dependent like the pipeline hit/stall counters and excluded
// from determinism guarantees.
package par
