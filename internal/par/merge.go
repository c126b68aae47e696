package par

import "repro/internal/memsort"

// MultiMerge merges k sorted lanes into dst (len = total lane length),
// across the workers when every worker's share reaches mergeGrain: the
// output range is cut at exact global ranks by memsort.CutLanes, and each
// worker runs the serial merge on its own slice of every lane into its own
// slice of dst.  dst must not alias the lanes, which are only read.  The
// output is bit-identical to memsort.MultiMerge for any worker count and
// kernel.
func (p *Pool) MultiMerge(dst []int64, lanes [][]int64) {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	if len(dst) != total {
		panic("par: MultiMerge destination size mismatch")
	}
	k := p.kernelFor(total)
	w := p.width(total, mergeGrain)
	if w == 1 || len(lanes) < 2 {
		mergeSegmentKernel(dst, lanes, k, 0)
		return
	}
	done := p.section()
	p.multiMergeBody(dst, lanes, k, w)
	done()
}

// MergeBlocks merges the sorted lanes into dst (len = total lane length)
// block-exactly: every aligned blk-key block of dst — dst[i·blk:(i+1)·blk],
// the last one possibly short — receives exactly the keys a full merge puts
// there, in unspecified order.  It is the merge for consumers that re-sort
// every block they read (the (l,m)-merge's pass 2, whose blocks the shuffle
// pass sorts again), and under the radix kernel it is cheaper than
// MultiMerge wherever the lanes interleave: it gallops (memsort's
// MergeRuns) while the lanes hand over long runs, so presorted, clustered
// and range-partitioned lanes still merge at copy speed, and hands the
// unconsumed suffixes to memsort.RadixBlocks, which splits them only as far
// as the block boundaries need, instead of radix-sorting them whole.  Under
// the comparison kernel the tail pops the loser tree as MultiMerge's does,
// and the output is sorted.
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
	k := p.kernelFor(n)
	segs := max(1, n/mergeGrain)
	if segs == 1 {
		mergeSegmentKernel(dst, lanes, k, blk)
		return
	}
	// Segment s is dst[bound(s):bound(s+1)], its start a block boundary.
	bound := func(s int) int {
		if s == segs {
			return n
		}
		return s * n / segs / blk * blk
	}
	w := p.width(n, mergeGrain)
	if w == 1 {
		mergeCuts(dst, lanes, k, blk, 0, segs, bound)
		return
	}
	done := p.section()
	p.parDo(w, segs, func(_, lo, hi int) { mergeCuts(dst, lanes, k, blk, lo, hi, bound) })
	done()
}

// mergeSegmentKernel is the serial leaf of both merges for an explicit
// kernel: a full merge for blk = 0, a block-exact one (MergeBlocks) for
// blk > 0, dst's first key sitting on a block boundary.  The merge is
// adaptive, the way TimSort's min-gallop is: the loser tree gallops
// (memsort.MergeRuns) while the lanes hand over long runs, so presorted,
// clustered or disjoint lanes merge at bulk-copy speed; when the mean run
// collapses to about a key — uniform keys — it leaves gallop mode for good.
// Under the radix kernel the lanes' remaining suffixes are then copied to
// the rest of dst (every remaining key is ≥ every emitted one, and bare
// int64 keys carry no identity, so the bytes are those of the merge) and
// radix-sorted there, or split block-exactly by memsort.RadixBlocks, with
// scratch from the capped free list; under the comparison kernel, which
// allocates no key buffers, the tree pops key by key.
func mergeSegmentKernel(dst []int64, lanes [][]int64, k Kernel, blk int) {
	if k != KernelRadix || len(lanes) <= 2 {
		memsort.MultiMerge(dst, lanes)
		return
	}
	t := memsort.NewLoserTree(lanes)
	e := t.MergeRuns(dst)
	rest := dst[e:]
	if len(rest) < memsort.RadixMinKeys {
		t.PopAll(rest)
		return
	}
	t.Rest(rest)
	if blk == 0 {
		sortSegmentKernel(rest, KernelRadix)
		return
	}
	bp := getScratch(len(rest))
	memsort.RadixBlocks(rest, *bp, blk, e)
	putScratch(bp)
}

// mergeCuts merges segments lo..hi-1 of the output into dst, segment s
// being dst[bound(s):bound(s+1)]: it cuts the lanes at each segment's
// bounds (memsort.CutLanes) and merges the segment's share of every lane
// with mergeSegmentKernel.  It is the body of both partitioned merges.
func mergeCuts(dst []int64, lanes [][]int64, k Kernel, blk, lo, hi int, bound func(int) int) {
	cut := memsort.CutLanes(lanes, bound(lo))
	sub := make([][]int64, len(lanes))
	for s := lo; s < hi; s++ {
		next := memsort.CutLanes(lanes, bound(s+1))
		for i, l := range lanes {
			sub[i] = l[cut[i]:next[i]]
		}
		mergeSegmentKernel(dst[bound(s):bound(s+1)], sub, k, blk)
		cut = next
	}
}

// multiMergeBody is the partitioned merge over w output cuts without the
// guard/section wrapper, shared with SortKeysScratch.
func (p *Pool) multiMergeBody(dst []int64, lanes [][]int64, k Kernel, w int) {
	total := len(dst)
	bound := func(s int) int { return s * total / w }
	p.parDo(w, w, func(s, _, _ int) { mergeCuts(dst, lanes, k, 0, s, s+1, bound) })
}
