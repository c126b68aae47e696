package par

import "repro/internal/memsort"

// MultiMerge merges k sorted lanes into dst (len = total lane length),
// across the workers when every worker's share reaches mergeGrain: the
// output range is cut at exact global ranks by memsort.CutLanes, and each
// worker runs the serial merge on its own slice of every lane into its own
// slice of dst.  dst must not alias the lanes, which are only read.  The
// output is bit-identical to memsort.MultiMerge for any worker count.
func (p *Pool) MultiMerge(dst []int64, lanes [][]int64) {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	if len(dst) != total {
		panic("par: MultiMerge destination size mismatch")
	}
	w := p.width(total, mergeGrain)
	if w == 1 || len(lanes) < 2 {
		p.mergeSegment(dst, lanes, 0)
		return
	}
	done := p.section()
	p.multiMergeBody(dst, lanes, w, func(d []int64, l [][]int64) { p.mergeSegment(d, l, 0) })
	done()
}

// MergeBlocks merges the sorted lanes into dst (len = total lane length)
// block-exactly: every aligned blk-key block of dst — dst[i·blk:(i+1)·blk],
// the last one possibly short — receives exactly the keys a full merge puts
// there, in unspecified order.  It is the merge for consumers that re-sort
// every block they read (the (l,m)-merge's pass 2, whose blocks the shuffle
// pass sorts again), and it is cheaper than MultiMerge wherever the lanes
// interleave: it gallops (memsort's MergeRuns) while the lanes hand over
// long runs, so presorted, clustered and range-partitioned lanes still
// merge at copy speed, and hands the unconsumed suffixes to
// memsort.RadixBlocks, which splits them only as far as the block
// boundaries need, instead of radix-sorting them whole.
//
// Above mergeGrain the output is cut at block-aligned ranks
// (memsort.CutLanes) into segments whose number depends only on len(dst),
// and each is merged on its own, spread across the workers: every segment
// is rank-exact at both ends, and dst's bytes are the same at every worker
// count.  blk must be positive; dst must not alias the lanes, which are
// only read.
func (p *Pool) MergeBlocks(dst []int64, lanes [][]int64, blk int) {
	n := 0
	for _, l := range lanes {
		n += len(l)
	}
	if len(dst) != n {
		panic("par: MergeBlocks destination size mismatch")
	}
	segs := max(1, n/mergeGrain)
	if segs == 1 {
		p.mergeSegment(dst, lanes, blk)
		return
	}
	// Segment s is dst[bound(s):bound(s+1)], its start a block boundary.
	bound := func(s int) int {
		if s == segs {
			return n
		}
		return s * n / segs / blk * blk
	}
	leaf := func(d []int64, l [][]int64) { p.mergeSegment(d, l, blk) }
	w := p.width(n, mergeGrain)
	if w == 1 {
		mergeCuts(dst, lanes, 0, segs, bound, leaf)
		return
	}
	done := p.section()
	p.parDo(w, segs, func(_, lo, hi int) { mergeCuts(dst, lanes, lo, hi, bound, leaf) })
	done()
}

// mergeSegment is the serial leaf of both merges: a full merge for blk =
// 0, a block-exact one (MergeBlocks) for blk > 0, dst's first key sitting
// on a block boundary.  The merge is adaptive, the way TimSort's
// min-gallop is: the loser tree gallops (memsort.MergeRuns) while the lanes
// hand over long runs, so presorted, clustered or disjoint lanes merge at
// bulk-copy speed; when the mean run collapses to about a key — uniform
// keys — it leaves gallop mode for good.  The lanes' remaining suffixes are
// then copied to the rest of dst (every remaining key is ≥ every emitted
// one, and bare int64 keys carry no identity, so the bytes are those of the
// merge) and radix-sorted there, or split block-exactly by
// memsort.RadixBlocks, with scratch borrowed as SortKeys borrows it.  A
// short tail, or a refused borrow, pops the tree key by key instead.
func (p *Pool) mergeSegment(dst []int64, lanes [][]int64, blk int) {
	if len(lanes) <= 2 {
		memsort.MultiMerge(dst, lanes)
		return
	}
	t := memsort.NewLoserTree(lanes)
	e := t.MergeRuns(dst)
	rest := dst[e:]
	scratch := p.borrow(len(rest))
	if scratch == nil {
		t.PopAll(rest)
		return
	}
	t.Rest(rest)
	if blk == 0 {
		memsort.RadixKeys(rest, scratch)
	} else {
		memsort.RadixBlocks(rest, scratch, blk, e)
	}
	p.giveBack(scratch)
}

// mergeCuts merges segments lo..hi-1 of the output into dst, segment s
// being dst[bound(s):bound(s+1)]: it cuts the lanes at each segment's
// bounds (memsort.CutLanes) and merges the segment's share of every lane
// with leaf.  It is the body of every partitioned merge.
func mergeCuts(dst []int64, lanes [][]int64, lo, hi int, bound func(int) int, leaf func(dst []int64, lanes [][]int64)) {
	cut := memsort.CutLanes(lanes, bound(lo))
	sub := make([][]int64, len(lanes))
	for s := lo; s < hi; s++ {
		next := memsort.CutLanes(lanes, bound(s+1))
		for i, l := range lanes {
			sub[i] = l[cut[i]:next[i]]
		}
		leaf(dst[bound(s):bound(s+1)], sub)
		cut = next
	}
}

// multiMergeBody is the partitioned merge over w equal output cuts, each
// merged by leaf, without the guard/section wrapper; MultiMerge and
// SortKeysScratch share it.
func (p *Pool) multiMergeBody(dst []int64, lanes [][]int64, w int, leaf func(dst []int64, lanes [][]int64)) {
	total := len(dst)
	bound := func(s int) int { return s * total / w }
	p.parDo(w, w, func(s, _, _ int) { mergeCuts(dst, lanes, s, s+1, bound, leaf) })
}
