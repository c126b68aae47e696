// Package dist is the distributed-sort coordinator: it executes one sort
// job across N pdmd worker nodes, speaking only the workers' public HTTP
// API (internal/pdmdapi).  The parallelism story mirrors the paper's: the
// Parallel Disk Model's D independent disks become D independent worker
// machines, passes over the data remain the currency, and the splitter
// sampling reuses the paper's Θ(k·α·log n) oversampling bound
// (plan.SplitterSample) so shards are balanced w.h.p.
//
// One job runs in four phases:
//
//  1. Sample.  A deterministic stride sample of the input keys is sorted
//     and N−1 splitters are read off at the quantiles.
//  2. Partition + upload.  One counting pass and one scatter place every
//     record in its shard's buffer by key range ("equal key goes right",
//     so ties never straddle shards), input order preserved.  Shards ship
//     through the staged-upload protocol: bounded-concurrency page uploads
//     (binary bodies to a worker whose /healthz offers them, JSON
//     otherwise), each idempotent and independently retried, committed into
//     one worker job per shard.
//  3. Local sorts.  Each worker sorts its shard with its ordinary
//     scheduler stack — the coordinator adds nothing worker-side.
//  4. Download.  Every page of every sorted shard is fetched, under the
//     same concurrency bound, straight into its position in the output:
//     shard i's pages land after the sizes of shards 0..i−1.  No merge
//     runs, because merging disjoint ranges in splitter order is
//     concatenating them — and the premise is asserted: each page must be
//     the window asked for of a result as long as the shard shipped, and
//     each shard must start strictly above its predecessor's last key.
//
// Determinism contract: the distributed output is bit-identical to the
// single-machine sort for any worker count.  Splitters are a pure function
// of the input; partition preserves order within shards; worker record
// sorts are stable; and shards are placed back in range order — so equal
// keys keep exactly the relative order a single stable sort would give
// them.
//
// Failure contract: any shard failure (worker down, job failed, timeout)
// cancels every job the run started on the surviving workers and returns
// an error; staged uploads that never committed are aborted, with the
// workers' TTL sweep as the backstop.  Cancellation of the caller's
// context fans out the same way.
package dist
