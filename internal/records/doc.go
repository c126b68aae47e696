// Package records is the full-record layer's external permutation engine:
// given variable-width byte payloads and a target order, it moves every
// payload byte through the simulated disks from original order into target
// order, with all I/O charged in the PDM's currency.
//
// The permutation is the classic distribution ("scatter") permutation the
// model prices at O(sort(N)) I/Os: the payload store is read sequentially
// once per level and each record is routed toward the memory-sized
// destination chunk it belongs to, recursing with fanout M/B until a
// chunk's worth of destinations fits in internal memory, where the records
// are placed and the chunk is written out sequentially.  Every level is two
// sequential passes (one write, one read back) over the payload volume plus
// a headerWords = 2 word header per resident segment, so with mean record
// width w̄ words the total cost is 2·(1 + levels·(1 + 2/w̄)) passes — 4.5
// for one level of 64-byte records — plus one header per record split at a
// partition boundary and one partial block per partition.  2·(levels+1),
// which plan.PermutePlan predicts, is the floor wide records approach.  The
// obvious per-record random gather (the baseline the package's paired
// benchmarks keep in bench_test.go) charges one vectored read per record.
//
// All reads run through the streaming layer (stream.Reader), so gather and
// scatter prefetch ahead of the consumer when the array's pipeline is
// configured, and a scatter level's writes go through stream.Scatter, which
// keeps every disk busy: a level's write steps stay within a few percent of
// its read steps whatever the permutation.  All buffers come from the
// array's arena, so the layer's true internal-memory footprint is metered
// like every algorithm's.
package records
