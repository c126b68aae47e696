// Package stream is the pipelined stripe-I/O layer between the pdm
// simulator and the algorithms: a Reader that prefetches upcoming chunks on
// a background goroutine while the caller consumes the current one, a
// Writer that stages completed chunks and flushes them write-behind, an
// Async handle for one overlapped vectored request, and a Pipe helper for
// the read-transform-write shape every PDM pass has.
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
// Scatter is the third primitive, for writes whose order the data decides
// (distribution onto partition stripes): it queues finished blocks by
// destination disk and guarantees at most one block per disk per request —
// one parallel step each — at the cost of M keys of arena for the queue.
//
// Staging buffers come from the array's Arena: pipelining costs
// (Prefetch+WriteBehind)·D·B keys of internal memory, charged like any
// other buffer (the capacity formula in pdm grows by exactly that budget).
// With a zero pdm.PipelineConfig every constructor degenerates to the
// synchronous path with no goroutines and no extra memory.
//
// A Reader, Writer or Scatter must be driven from a single goroutine;
// distinct ones on one array may run concurrently.
package stream
