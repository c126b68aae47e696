package records

import "math/bits"

// Range partitioning for the distributed coordinator (internal/dist): the
// same order-preserving bucket discipline the external distribution
// permutation uses for its scatter, applied at record granularity across
// worker shards instead of block granularity across scratch chunks.

// RangeShard returns the shard a key belongs to under the given sorted
// splitters: the number of splitters ≤ key.  So shard i receives keys in
// [splitters[i-1], splitters[i]), with the first shard open below and the
// last open above, and a key equal to a splitter goes right — every
// occurrence of a key lands in the same shard, which is what keeps a
// range-partitioned sort stable (ties never straddle a shard boundary).
//
// The count is a bisection with no branch on the key: ⌊log₂ n⌋ + 1 probes
// for n splitters, each adding its half window when the probed splitter is
// ≤ key, by the compare's borrow rather than a jump.  Uniform keys, whose
// compares are coin flips, so cost no mispredictions.  It is small enough
// to inline into the coordinator's partition loops.
func RangeShard(key int64, splitters []int64) int {
	k := uint64(key) ^ 1<<63 // order-preserving unsigned encoding
	// The count lies in [base, base+n]; each probe halves the window.
	base, n := 0, len(splitters)
	for n > 0 {
		half := (n + 1) >> 1
		_, above := bits.Sub64(k, uint64(splitters[base+half-1])^1<<63, 0)
		base += half &^ -int(above)
		n -= half
	}
	return base
}
