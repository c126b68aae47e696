package stream

import (
	"fmt"

	"repro/internal/pdm"
)

// Pass drives one read–compute–write pass over chunks chunks.  Chunk t's
// blocks, planned by plan(t, dst), are read into the head of buf, which
// must hold the largest chunk; body(t, chunk, w) computes on them and
// submits the chunk's writes to w, which copies the addresses and blocks
// of each write, so body may rebuild one write list for every chunk.  With
// pipelining configured on the array, chunk t+1 is prefetched and earlier
// writes are flushed while body runs, and a zero pipeline configuration
// makes it the synchronous loop; either way the reads are charged as body
// receives them and the writes as body submits them.  plan follows
// NewReader's rules: pure address arithmetic into the buffer it is
// handed.  The writer's staging is taken at body's first write.  The first
// error — a read, body's, or the final flush — ends the pass; the staging
// and prefetch ring go back to the arena on every path.
func Pass(a *pdm.Array, chunks int, plan func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr, buf []int64,
	body func(t int, chunk []int64, w *Writer) error) error {
	r, err := NewReader(a, chunks, plan)
	if err != nil {
		return err
	}
	defer r.Close()
	w := &Writer{lists: freeLists.Take(), a: a, lazy: true}
	defer w.Close()
	views := carve(&r.views, buf, a.B())
	for t := 0; t < chunks; t++ {
		nb, err := r.fill(views, false)
		if err != nil {
			return err
		}
		if err := body(t, buf[:nb*a.B()], w); err != nil {
			return err
		}
	}
	return w.Close()
}

// Pipe is Pass over two stripes of equal length: it streams src through
// transform into dst in chunks of len(buf) keys.  transform receives the
// key offset of the chunk and may modify it in place (a nil transform
// copies).  len(buf) must be a positive multiple of B.
func Pipe(src, dst *pdm.Stripe, buf []int64, transform func(off int, chunk []int64) error) error {
	a := src.Array()
	n := src.Len()
	if dst.Len() != n {
		return fmt.Errorf("stream: Pipe from %d keys into %d", n, dst.Len())
	}
	chunk := len(buf)
	if chunk <= 0 || chunk%a.B() != 0 {
		return fmt.Errorf("stream: Pipe buffer of %d keys with B = %d", chunk, a.B())
	}
	chunks, plan := stripeChunks(src, 0, n, chunk)
	return Pass(a, chunks, plan, buf, func(t int, keys []int64, w *Writer) error {
		if transform != nil {
			if err := transform(t*chunk, keys); err != nil {
				return err
			}
		}
		return w.WriteStripe(dst, t*chunk, keys)
	})
}
