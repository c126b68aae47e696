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
		p.mergeSegment(dst, lanes)
		return
	}
	done := p.section()
	p.multiMergeBody(dst, lanes, w, p.mergeSegment)
	done()
}

// mergeSegment is MultiMerge's serial leaf.  The merge is adaptive, the
// way TimSort's min-gallop is: the loser tree gallops (memsort.MergeRuns)
// while the lanes hand over long runs, so presorted, clustered or disjoint
// lanes merge at bulk-copy speed; when the mean run collapses to about a
// key — uniform keys — it leaves gallop mode for good.  The lanes'
// remaining suffixes are then copied to the rest of dst (every remaining
// key is ≥ every emitted one, and bare int64 keys carry no identity, so the
// bytes are those of the merge) and radix-sorted there, with scratch
// borrowed as SortKeys borrows it.  A short tail, or a refused borrow,
// pops the tree key by key instead.
func (p *Pool) mergeSegment(dst []int64, lanes [][]int64) {
	if len(lanes) <= 2 {
		memsort.MultiMerge(dst, lanes)
		return
	}
	t := memsort.NewLoserTree(lanes)
	rest := dst[t.MergeRuns(dst):]
	scratch := p.borrow(len(rest))
	if scratch == nil {
		t.PopAll(rest)
		return
	}
	t.Rest(rest)
	memsort.RadixKeys(rest, scratch)
	p.giveBack(scratch)
}

// multiMergeBody is the partitioned merge over w equal output cuts without
// the guard/section wrapper; MultiMerge and SortKeysScratch share it.  Cut
// s is dst[s·n/w : (s+1)·n/w]: each worker cuts the lanes at its bounds
// (memsort.CutLanes) and merges its share of every lane with leaf.
func (p *Pool) multiMergeBody(dst []int64, lanes [][]int64, w int, leaf func(dst []int64, lanes [][]int64)) {
	n := len(dst)
	p.parDo(w, w, func(s, _, _ int) {
		lo, hi := s*n/w, (s+1)*n/w
		from, to := memsort.CutLanes(lanes, lo), memsort.CutLanes(lanes, hi)
		sub := make([][]int64, len(lanes))
		for i, l := range lanes {
			sub[i] = l[from[i]:to[i]]
		}
		leaf(dst[lo:hi], sub)
	})
}
