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
//     record in one partition buffer, shard by shard, by key range: a
//     key's shard is the number of splitters ≤ it ("equal key goes
//     right", so ties never straddle shards), counted without a branch on
//     the key and recounted in the scatter rather than stored.  Input
//     order is preserved within a shard.  Shards ship through the staged-upload protocol:
//     bounded-concurrency page uploads (binary bodies to a worker whose
//     /healthz offers them, JSON otherwise), each idempotent and
//     independently retried, committed into one worker job per shard.  A
//     binary page body is its header followed by a view of the buffer's
//     keys, not a copy; every retry reads the same bytes afresh.  The
//     buffer is borrowed from a free list the coordinator keeps between
//     jobs (internal/freelist: at most as many buffers as were out at
//     once, not emptied by a collection, each lent to one job at a time),
//     so a warm job makes none; a coordinator's first job makes its own.
//  3. Local sorts.  Each worker sorts its shard with its ordinary
//     scheduler stack — the coordinator adds nothing worker-side.
//  4. Download.  Every page of every sorted shard is fetched, under the
//     same concurrency bound, straight into its position in the partition
//     buffer again: shard i's pages land where it was uploaded from, after
//     the sizes of shards 0..i−1.  net/http may read an upload body after
//     its request returns, so nothing is written there before every upload
//     body has been closed.  No merge runs, because merging disjoint
//     ranges in splitter order is concatenating them — and the premise is
//     asserted: each page must be the window asked for of a result as long
//     as the shard shipped, and each shard must start strictly above its
//     predecessor's last key.  Then one copy moves the buffer into the
//     caller's keys (and payloads), which is the in-place sort, and the
//     buffer goes back to the free list, unless it is more than twice the
//     job, which leaves it to the collector.  Meanwhile every worker is
//     asked to drop its shard's result (DELETE /jobs/{id}/result; the
//     job's status stays); Sort waits for those answers a second at most,
//     so a worker that stops answering after its last page cannot hold a
//     finished sort up for long.
//
// Determinism contract: the distributed output is bit-identical to the
// single-machine sort for any worker count.  Splitters are a pure function
// of the input; partition preserves order within shards; worker record
// sorts are stable; and shards are placed back in range order — so equal
// keys keep exactly the relative order a single stable sort would give
// them.
//
// Failure contract: any shard failure (worker down, job failed, timeout,
// a result page that is not the one asked for) cancels every job the run
// started on the surviving workers, drops what they kept, and returns an
// error; staged uploads that never committed are aborted, with the
// workers' TTL sweep as the backstop.  Cancellation of the caller's
// context fans out the same way.  The caller's keys and payloads are left
// untouched, as Machine.Sort and Machine.SortRecords leave theirs: the
// result moves into them only after every page has arrived and the shard
// boundaries hold.  The failed run's partition buffer is not reused —
// upload bodies viewing it may still be open — and is left to the
// collector.
package dist
