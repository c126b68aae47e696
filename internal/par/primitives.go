package par

import "sync/atomic"

// Transpose writes the rows×cols row-major matrix src into dst in
// column-major order: dst[c·rows + r] = src[r·cols + c].  It is the
// unshuffle/scatter kernel of the (l,m)-merge passes, parallelized over
// destination columns so every worker writes a contiguous dst range.
func (p *Pool) Transpose(dst, src []int64, rows, cols int) {
	if len(dst) != rows*cols || len(src) != rows*cols {
		panic("par: Transpose size mismatch")
	}
	p.For(rows*cols, cols, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			base := c * rows
			for r := 0; r < rows; r++ {
				dst[base+r] = src[r*cols+c]
			}
		}
	})
}

// Histogram counts keys per bucket under bucketOf (which must be pure —
// it is called concurrently): the radix-counting kernel of the integer
// sorts.  Each worker fills a private count vector; the vectors are then
// reduced, so the result is exact and order-independent.  ok is false if
// any key maps outside [0, buckets); the counts are then meaningless.
func (p *Pool) Histogram(keys []int64, buckets int, bucketOf func(int64) int) (counts []int, ok bool) {
	w := p.width(len(keys), forGrain)
	if w == 1 {
		counts = make([]int, buckets)
		for _, k := range keys {
			b := bucketOf(k)
			if b < 0 || b >= buckets {
				return nil, false
			}
			counts[b]++
		}
		return counts, true
	}
	done := p.section()
	defer done()
	local := make([][]int, w)
	var bad atomic.Bool
	p.parDo(w, len(keys), func(wi, lo, hi int) {
		c := make([]int, buckets)
		for _, k := range keys[lo:hi] {
			b := bucketOf(k)
			if b < 0 || b >= buckets {
				bad.Store(true)
				return
			}
			c[b]++
		}
		local[wi] = c
	})
	if bad.Load() {
		return nil, false
	}
	counts = make([]int, buckets)
	for _, c := range local {
		for b, n := range c {
			counts[b] += n
		}
	}
	return counts, true
}
