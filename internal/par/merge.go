package par

import "repro/internal/memsort"

// MultiMerge merges k sorted lanes into dst (len = total lane length),
// across the workers when every worker's share reaches mergeGrain: the
// output range is cut at exact global ranks by memsort.CutLanes, and each
// worker runs MergeSegment's serial merge on its own slice of every lane
// into its own slice of dst.  dst must not alias the lanes, which are only
// read.  The output is bit-identical to memsort.MultiMerge for any worker
// count and kernel.
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
		mergeSegmentKernel(dst, lanes, k)
		return
	}
	done := p.section()
	p.multiMergeBody(dst, lanes, k, w)
	done()
}

// MergeSegment merges the sorted lanes into dst (len = total lane length)
// serially on the calling goroutine — the leaf for callers that manage their
// own parallelism, as SortSegment is for sorts.  The merge is adaptive, the
// way TimSort's min-gallop is: the loser tree gallops (memsort.MergeRuns)
// while the lanes hand over long runs, so presorted, clustered or disjoint
// lanes merge at bulk-copy speed; when the mean run collapses to about a key
// — uniform keys — it leaves gallop mode for good.  Under the radix kernel
// the lanes' remaining suffixes are then copied to the rest of dst and
// radix-sorted there (every remaining key is ≥ every emitted one, and bare
// int64 keys carry no identity, so the bytes are those of the merge), with
// scratch from the capped free list; under the comparison kernel, which
// allocates no key buffers, the tree pops key by key.  Safe to call
// concurrently; the lanes are only read.
func (p *Pool) MergeSegment(dst []int64, lanes [][]int64) {
	mergeSegmentKernel(dst, lanes, p.kernelFor(len(dst)))
}

// mergeSegmentKernel is MergeSegment for an explicit kernel.
func mergeSegmentKernel(dst []int64, lanes [][]int64, k Kernel) {
	if k != KernelRadix || len(lanes) <= 2 {
		memsort.MultiMerge(dst, lanes)
		return
	}
	t := memsort.NewLoserTree(lanes)
	rest := dst[t.MergeRuns(dst):]
	if len(rest) < memsort.RadixMinKeys {
		t.PopAll(rest)
		return
	}
	t.Rest(rest)
	sortSegmentKernel(rest, KernelRadix)
}

// multiMergeBody is the partitioned merge over w output cuts without the
// guard/section wrapper, shared with SortKeysScratch.
func (p *Pool) multiMergeBody(dst []int64, lanes [][]int64, k Kernel, w int) {
	total := len(dst)
	// Splitters: cuts[s] holds each lane's cut at output rank s·total/w.
	cuts := make([][]int, w+1)
	cuts[0] = make([]int, len(lanes))
	for s := 1; s < w; s++ {
		cuts[s] = memsort.CutLanes(lanes, s*total/w)
	}
	last := make([]int, len(lanes))
	for i, l := range lanes {
		last[i] = len(l)
	}
	cuts[w] = last
	p.parDo(w, w, func(s, _, _ int) {
		sub := make([][]int64, len(lanes))
		for i, l := range lanes {
			sub[i] = l[cuts[s][i]:cuts[s+1][i]]
		}
		mergeSegmentKernel(dst[s*total/w:(s+1)*total/w], sub, k)
	})
}
