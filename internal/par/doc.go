// Package par is the shared worker-pool compute layer between the in-core
// kernels (internal/memsort) and the PDM algorithms: memory-load sorting,
// k-way merging (adaptive; partitioned by splitters when it forks),
// in-place symmetric merging, and scatter/gather primitives (transpose,
// For).
//
// The grain rule.  Parallelism inside one operation is taken only when
// every worker's share amortises the fork/join and the work the parallel
// form adds; below that grain the pool calls the serial memsort kernel
// directly, and above it the operation is as wide as its size pays for,
// never wider than the pool.  The grains are unexported constants in
// par.go, chosen from the paired benchmarks in bench_test.go at the sizes
// that actually run (4Ki–64Ki-key loads, and 1Mi) — not flags, fields or
// variables.  A memory load sorts and merges serially; above the grain
// there is one parallel sort path (per-worker serial sorts of contiguous
// segments, one splitter-partitioned merge, a copy back).
//
// One kernel.  A load sorts with the LSD radix sort (memsort.RadixKeys,
// the introsort below memsort.RadixMinKeys keys, the one size threshold).
// Every k-way merge gallops (memsort's MergeRuns) while the lanes hand
// over long runs and leaves gallop mode for good when the mean run
// collapses to about a key, as it does on uniform keys; it then copies the
// lanes' suffixes to the output tail and radix-sorts them there.
// Callers that re-sort every block they read need no merge or sort at all:
// they split their loads block-exactly with memsort.RadixBlocks directly.
//
// The layer is invisible to the PDM cost model and to the algorithms'
// results: every operation produces output bit-identical to its serial
// counterpart for any worker count — sorting and merging int64 multisets
// have a unique result, and the partition boundaries are exact ranks — so
// parallelism changes wall-clock only, never pass counts, statistics, or
// I/O traces.
//
// Scratch.  The sorts and merges work in place or write caller-provided
// buffers, and merge lanes are only ever read; the one extra buffer is the
// radix kernel's scratch, up to one load of keys per sort or merge tail.
// A pool borrows it from its Scratch (Alloc, then Free) for the duration
// of the call — the pdm Array hands its pool the array's Arena, so the
// scratch is metered with every other in-core buffer, priced by
// pdm.Config.ArenaCapacity, and comes back out of the buffers the arena
// kept from earlier borrows — unless the caller passes a dead buffer of
// its own (SortKeysScratch).  A
// borrow the Scratch refuses is a pricing bug, but not a wrong answer:
// the sort falls back to the scratch-free introsort and the merge tail to
// the loser tree's pops, with the same keys, and the arena counts the
// refusal (pdm.Arena.Refused).  A pool built by New has no Scratch and
// allocates each borrow on the Go heap.  The package holds no state of its
// own beyond its pools.
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
