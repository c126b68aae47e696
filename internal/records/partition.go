package records

import "sort"

// Range partitioning for the distributed coordinator (internal/dist): the
// same order-preserving bucket discipline the external distribution
// permutation uses for its scatter, applied at record granularity across
// worker shards instead of block granularity across scratch chunks.

// RangeShard returns the shard a key belongs to under the given sorted
// splitters: shard i receives keys in [splitters[i-1], splitters[i]), with
// the first shard open below and the last open above.  A key equal to a
// splitter goes right — so every occurrence of a key lands in the same
// shard, which is what keeps a range-partitioned sort stable (ties never
// straddle a shard boundary).
func RangeShard(key int64, splitters []int64) int {
	return sort.Search(len(splitters), func(i int) bool { return key < splitters[i] })
}
