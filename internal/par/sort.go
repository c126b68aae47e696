package par

import (
	"sync"

	"repro/internal/memsort"
)

// SortKeys sorts a in place, dispatching on the pool's Kernel, across as
// many workers as the load gives a full grain each (see the grain constants)
// and serially below that.  The comparison kernel forks per-worker
// memsort.Keys on contiguous segments, then parallel in-place merge rounds
// (symmetric merges of adjacent segment pairs, each pair's merge itself
// forked by SymMergeSplit); it allocates no key buffers, so it is safe inside
// any memory envelope.  The radix kernel borrows ping-pong scratch from the
// capped free list (see maxPooledScratchKeys) — still Go heap, never
// simulated-arena memory — for SortKeysScratch's parallel path.  The result is
// identical to memsort.Keys for any kernel and worker count; when a scratch
// buffer is already available, SortKeysScratch avoids the borrow.
func (p *Pool) SortKeys(a []int64) {
	n := len(a)
	k := p.kernelFor(n)
	s := p.width(n, k.sortGrain())
	if s == 1 {
		sortSegmentKernel(a, k)
		return
	}
	done := p.section()
	if k == KernelRadix {
		bp := getScratch(n)
		p.sortSegmentsMerge(a, *bp, k, s)
		putScratch(bp)
	} else {
		p.sortSymMerge(a, s)
	}
	done()
}

// sortSymMerge is the scratch-free parallel comparison sort over s segments.
func (p *Pool) sortSymMerge(a []int64, s int) {
	n := len(a)
	bounds := make([]int, s+1)
	for i := range bounds {
		bounds[i] = i * n / s
	}
	p.parDo(s, s, func(i, _, _ int) {
		memsort.Keys(a[bounds[i]:bounds[i+1]])
	})
	// Merge rounds: width doubles each round; every pair merge gets an
	// equal share of the workers to fork its symmetric merge with.
	for width := 1; width < s; width *= 2 {
		type pair struct{ lo, mid, hi int }
		var pairs []pair
		for i := 0; i+width < s; i += 2 * width {
			hiIdx := i + 2*width
			if hiIdx > s {
				hiIdx = s
			}
			pairs = append(pairs, pair{bounds[i], bounds[i+width], bounds[hiIdx]})
		}
		budget := s / len(pairs)
		if budget < 1 {
			budget = 1
		}
		// Plain goroutines, not p.spawn: symMergeRec records its own busy
		// time at the leaves, so timing the whole subtree here would count
		// its children's work (and the waits for them) twice.
		var wg sync.WaitGroup
		for _, pr := range pairs[1:] {
			pr := pr
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.symMergeRec(a, pr.lo, pr.mid, pr.hi, budget)
			}()
		}
		p.symMergeRec(a, pairs[0].lo, pairs[0].mid, pairs[0].hi, budget)
		wg.Wait()
	}
}

// SortKeysScratch sorts a in place using scratch (len ≥ len(a)) as work
// space, dispatching on the pool's Kernel.  Below the kernel's grain it is
// the serial kernel, the radix one ping-ponging through scratch directly (no
// borrow).  Above it, both kernels take the same one parallel path: each
// worker sorts a contiguous segment serially (radix segments ping-pong
// through their own span of scratch, so every worker's traffic stays in its
// own cache), one splitter-partitioned k-way merge joins the segments into
// scratch, and a parallel copy brings them back.  Falls back to SortKeys
// when scratch is too small.
func (p *Pool) SortKeysScratch(a, scratch []int64) {
	n := len(a)
	if len(scratch) < n {
		p.SortKeys(a)
		return
	}
	k := p.kernelFor(n)
	s := p.width(n, k.sortGrain())
	if s == 1 {
		sortSerial(a, scratch, k)
		return
	}
	done := p.section()
	p.sortSegmentsMerge(a, scratch[:n], k, s)
	done()
}

// sortSegmentsMerge is the parallel sort over s segments: serial kernel
// sorts, a partitioned merge into scratch, a copy back.
func (p *Pool) sortSegmentsMerge(a, scratch []int64, k Kernel, s int) {
	n := len(a)
	lanes := make([][]int64, s)
	p.parDo(s, s, func(i, _, _ int) {
		lo, hi := i*n/s, (i+1)*n/s
		sortSerial(a[lo:hi], scratch[lo:hi], k)
		lanes[i] = a[lo:hi]
	})
	// The segments of a uniform load interleave key by key, and there are
	// only s of them: the comparison merge's plain pops are the right tail
	// here whatever the kernel (re-sorting the tail would sort twice).
	p.multiMergeBody(scratch, lanes, KernelComparison, s)
	p.parDo(s, n, func(_, lo, hi int) {
		copy(a[lo:hi], scratch[lo:hi])
	})
}

// SymMerge merges the sorted halves a[:m] and a[m:] in place across the
// workers; identical to memsort.SymMerge for any worker count.
func (p *Pool) SymMerge(a []int64, m int) {
	w := p.width(len(a), mergeGrain)
	if w == 1 {
		memsort.SymMerge(a, m)
		return
	}
	done := p.section()
	p.symMergeRec(a, 0, m, len(a), w)
	done()
}

// symMergeRec is the forked symmetric merge: each SymMergeSplit step yields
// two independent subproblems, run concurrently while the goroutine budget
// lasts and serially below it (or once a subproblem is under the grain).
// Busy time is recorded around the actual work — the split steps and the
// serial leaf merges — never around a wait, so WorkerUtilization counts each
// merged key exactly once.
func (p *Pool) symMergeRec(data []int64, a, m, b, budget int) {
	for {
		if budget <= 1 || b-a < mergeGrain {
			p.busyDo(func() { memsort.SymMergeRange(data, a, m, b) })
			return
		}
		var start, mid, end int
		var split bool
		p.busyDo(func() { start, mid, end, split = memsort.SymMergeSplit(data, a, m, b) })
		if !split {
			return
		}
		left := a < start && start < mid
		right := mid < end && end < b
		switch {
		case left && right:
			var wg sync.WaitGroup
			lo, lm, lhi, lb := a, start, mid, budget/2
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.symMergeRec(data, lo, lm, lhi, lb)
			}()
			p.symMergeRec(data, mid, end, b, budget-budget/2)
			wg.Wait()
			return
		case left:
			m, b = start, mid
		case right:
			a, m = mid, end
		default:
			return
		}
	}
}
