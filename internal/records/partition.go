package records

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
	// sort.Search's bisection for the first splitter above key, without
	// the closure call per probe.
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key < splitters[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
