// Package stream is the pipelined stripe-I/O layer between the pdm
// simulator and the algorithms: a Reader that prefetches upcoming chunks on
// a background goroutine while the caller consumes the current one, a
// Writer that stages completed chunks and flushes them write-behind, an
// Async handle for one overlapped vectored request, and Pass, the driver of
// the read–compute–write shape every PDM pass has: it owns the pass's
// Reader and Writer, the chunk loop and the error precedence, so a pass is
// its read plan plus its compute.  Pipe is Pass over two stripes.
//
// The layer is invisible to the PDM cost model.  Physical transfers run
// through Array.TransferV (uncharged) on background goroutines; each
// logical request is charged exactly once through Array.ChargeV at the
// point where the synchronous code would have issued it — Reader charges
// when the consumer takes a chunk, Writer when the producer pushes one — so
// statistics, pass counts, and I/O traces are bit-identical to unpipelined
// execution, which is what keeps the paper's accounting honest while the
// wall clock improves.
//
// Scatter is the third primitive, the bucket writer for writes whose order
// the data decides.  It owns one carry block per bucket: Append fills a
// bucket's carry, every full carry is queued at the address the caller's
// next function returns, and Flush zero-pads and queues the partial carries
// in bucket order.  Queued blocks wait by destination disk, and every
// request holds at most one block per disk — one parallel step each — at
// the cost of M keys of arena for the queue plus B per bucket for the
// carries.  Its three clients are the distribution routes, which keep only
// their routing and addressing: the records permutation, the partitioned
// group-by, and the IntegerSort scatter behind RadixSort's rounds.
//
// Staging is slots of pdm.SlotRows (two) stripe rows, taken from the
// array's Arena: pipelining costs (Prefetch+WriteBehind)·2·D·B keys of
// internal memory, charged like any other buffer (the capacity formula in
// pdm grows by exactly that budget; pdm.Config.PipelineStaging).  The
// prefetcher fills every free slot in one transfer with the blocks that
// come next, across chunk boundaries, and a slot is free again only once
// its last block is consumed; Writer requests fill slots back to back and
// the flusher coalesces the queued ones.  On extent-capable arrays a
// transfer moves each disk's consecutive blocks in one call, so a
// sequential pass at depth 2 moves up to four blocks per disk per call.
// The slots' memory comes from the arena's Alloc and goes back through its
// Free, which keeps it for the next pass, so a pass on a warm array
// reserves and releases it without allocating.  With a zero
// pdm.PipelineConfig every constructor degenerates to the synchronous path
// with no goroutines and no extra memory.
//
// A read plan is address arithmetic into a buffer it is handed:
// plan(t, dst) appends chunk t's block addresses to the empty dst and
// returns the result, which the Reader hands back for the next plan.  The
// prefetcher plans a chunk into its buffer to fetch it and the consumer
// plans it again into its own to charge it, so a plan is pure and safe on
// two goroutines at once.  A Writer copies the addresses of every Write
// into its staging (or has written them when it returns), so a producer
// rebuilds one write list in place for every chunk, and WriteStripe lists
// a stripe range in the Writer's own buffer.  Those buffers, the block
// views of the caller's memory and of the slots, and the transfer lists
// are a Reader's or Writer's lists, which Close hands to the next
// constructor through a free list a collection does not empty: a warm
// pass allocates a constant, not a list per chunk, whenever the GC ran.
//
// A Reader, Writer or Scatter must be driven from a single goroutine;
// distinct ones on one array may run concurrently.
package stream
