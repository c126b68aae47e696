package par

import "repro/internal/memsort"

// SortKeys sorts a in place with the LSD radix kernel (memsort.RadixKeys,
// which takes the introsort below memsort.RadixMinKeys keys), across as
// many workers as the load gives a full sortGrain each and serially below
// that.  Its one load of scratch is borrowed from the pool's Scratch for
// the call; should the Scratch refuse it, the load is sorted by the
// scratch-free introsort instead.  The result is identical to memsort.Keys
// for any worker count and either way; when a dead buffer is at hand,
// SortKeysScratch avoids the borrow.
func (p *Pool) SortKeys(a []int64) {
	scratch := p.borrow(len(a))
	p.sortScratch(a, scratch)
	p.giveBack(scratch)
}

// SortKeysScratch sorts a in place using scratch (len ≥ len(a)) as work
// space.  Below the grain it is the serial kernel ping-ponging through
// scratch directly.  Above it each worker sorts a contiguous segment
// serially (through its own span of scratch, so every worker's traffic
// stays in its own cache), one splitter-partitioned k-way merge joins the
// segments into scratch, and a parallel copy brings them back.  Falls back
// to SortKeys when scratch is too small.
func (p *Pool) SortKeysScratch(a, scratch []int64) {
	if len(scratch) < len(a) {
		p.SortKeys(a)
		return
	}
	p.sortScratch(a, scratch[:len(a)])
}

// SortSegment sorts one contiguous segment serially on the calling
// goroutine, borrowing its scratch as SortKeys does.  It is the
// per-segment leaf for callers that manage their own parallelism —
// columnsort's independent column sorts run it inside a For callback — and
// is safe to call concurrently as long as the pool's Scratch is.
func (p *Pool) SortSegment(a []int64) {
	scratch := p.borrow(len(a))
	sortSerial(a, scratch)
	p.giveBack(scratch)
}

// sortScratch is SortKeysScratch for scratch of exactly len(a) keys, or
// nil for a refused borrow.
func (p *Pool) sortScratch(a, scratch []int64) {
	s := p.width(len(a), sortGrain)
	if s == 1 || scratch == nil {
		sortSerial(a, scratch)
		return
	}
	done := p.section()
	p.sortSegmentsMerge(a, scratch, s)
	done()
}

// sortSerial sorts a serially: the radix kernel given scratch (len ≥
// len(a)), the introsort given none.
func sortSerial(a, scratch []int64) {
	if len(scratch) < len(a) {
		memsort.Keys(a)
		return
	}
	memsort.RadixKeys(a, scratch)
}

// borrow takes n keys of kernel scratch from the pool's Scratch, or from
// the heap when it has none.  It returns nil below memsort.RadixMinKeys,
// where the kernel needs none, and when the Scratch refuses; the Scratch
// has counted that (pdm.Arena.Refused), and the caller goes on without.
func (p *Pool) borrow(n int) []int64 {
	if n < memsort.RadixMinKeys {
		return nil
	}
	if p.scratch == nil {
		return make([]int64, n)
	}
	buf, err := p.scratch.Alloc(n)
	if err != nil {
		return nil
	}
	return buf
}

// giveBack returns what borrow handed out.
func (p *Pool) giveBack(buf []int64) {
	if p.scratch != nil && buf != nil {
		p.scratch.Free(buf)
	}
}

// sortSegmentsMerge is the parallel sort over s segments: serial kernel
// sorts, a partitioned merge into scratch, a copy back.
func (p *Pool) sortSegmentsMerge(a, scratch []int64, s int) {
	n := len(a)
	lanes := make([][]int64, s)
	p.parDo(s, s, func(i, _, _ int) {
		lo, hi := i*n/s, (i+1)*n/s
		sortSerial(a[lo:hi], scratch[lo:hi])
		lanes[i] = a[lo:hi]
	})
	// The segments of a uniform load interleave key by key, and there are
	// only s of them: plain pops are the right tail here (re-sorting the
	// tail would sort twice).
	p.multiMergeBody(scratch, lanes, s, memsort.MultiMerge)
	p.parDo(s, n, func(_, lo, hi int) {
		copy(a[lo:hi], scratch[lo:hi])
	})
}
