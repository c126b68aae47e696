package scenario

import (
	"fmt"
	"math"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// Merge folds two sorted stripes into one sorted output stripe with a
// single two-lane StreamMerge pass: each input is read once and the
// output written once, all through charged streamed I/O.  Both inputs
// must be stripe-padded (their MaxInt64 sentinels sort to the tail of the
// output, so the merged stripe of len(x)+len(y) keys carries the combined
// padding at the end).  Ties break toward x (the existing dataset), which
// matches what re-sorting the concatenation produces for equal keys.
//
// Memory: three chunk buffers (two lanes + output staging), each a whole
// number of stripes, sized to fit one memory load together.
func Merge(a *pdm.Array, x, y *pdm.Stripe) (*pdm.Stripe, error) {
	stripe := a.StripeWidth()
	nx, ny := x.Len(), y.Len()
	if nx%stripe != 0 || ny%stripe != 0 {
		return nil, fmt.Errorf("scenario: merge inputs %d/%d are not stripe-padded (stripe %d)", nx, ny, stripe)
	}
	chunk := a.Mem() / 4 / stripe * stripe
	if chunk < stripe {
		chunk = stripe
	}
	if 3*chunk > a.Mem() {
		return nil, fmt.Errorf("scenario: merge needs 3 stripe buffers, D*B = %d too large for M = %d", stripe, a.Mem())
	}
	a.Arena().SetPhase("scenario/merge")
	defer a.Arena().SetPhase("")

	total := nx + ny
	out, err := a.NewStripe(total)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*pdm.Stripe, error) {
		out.Free()
		return nil, err
	}

	type lane struct {
		rd   *stream.Reader
		buf  []int64
		rem  int // keys not yet handed to the merge
		eoff int // consumed prefix of the current chunk
		cur  []int64
	}
	lanes := make([]*lane, 2)
	for i, s := range []*pdm.Stripe{x, y} {
		buf, err := a.Arena().Alloc(chunk)
		if err != nil {
			return fail(err)
		}
		defer a.Arena().Free(buf)
		l := &lane{buf: buf, rem: s.Len()}
		if s.Len() > 0 {
			rd, err := stream.NewStripeReader(s, 0, s.Len(), chunk)
			if err != nil {
				return fail(err)
			}
			defer rd.Close()
			l.rd = rd
		}
		lanes[i] = l
	}
	staging, err := a.Arena().Alloc(chunk)
	if err != nil {
		return fail(err)
	}
	defer a.Arena().Free(staging)

	w, err := stream.NewWriter(a)
	if err != nil {
		return fail(err)
	}
	defer w.Close()
	wrote := 0 // keys flushed to out
	nst := 0   // keys staged
	flush := func() error {
		if nst == 0 {
			return nil
		}
		if err := w.WriteStripe(out, wrote, staging[:nst]); err != nil {
			return err
		}
		wrote += nst
		nst = 0
		return nil
	}

	refill := func(i int) ([]int64, error) {
		l := lanes[i]
		if l.rem == 0 {
			return nil, nil
		}
		c := chunk
		if c > l.rem {
			c = l.rem
		}
		if err := l.rd.FillFlat(l.buf[:c]); err != nil {
			return nil, err
		}
		l.rem -= c
		// The padding sentinel doubles as StreamMerge's exhaustion marker,
		// so it must never enter the merge: trim the sentinel suffix (the
		// inputs are sorted, so padding is always a chunk tail).  All-pad
		// chunks return empty, and the merge refills again — the read was
		// still charged, like any streamed pass over the padded stripe.
		cut := c
		for cut > 0 && l.buf[cut-1] == math.MaxInt64 {
			cut--
		}
		l.cur = l.buf[:cut]
		l.eoff = 0
		return l.cur, nil
	}
	emit := func(i, n int) error {
		l := lanes[i]
		src := l.cur[l.eoff : l.eoff+n]
		l.eoff += n
		for len(src) > 0 {
			c := copy(staging[nst:], src)
			nst += c
			src = src[c:]
			if nst == len(staging) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := memsort.StreamMerge(2, refill, emit); err != nil {
		return fail(err)
	}
	// Re-pad the output to the full stripe: the combined sentinel tail the
	// trim withheld from the merge.
	for wrote+nst < total {
		room := len(staging) - nst
		if pad := total - wrote - nst; room > pad {
			room = pad
		}
		for i := 0; i < room; i++ {
			staging[nst+i] = math.MaxInt64
		}
		nst += room
		if nst == len(staging) {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	if wrote != total {
		return fail(fmt.Errorf("scenario: merge wrote %d of %d keys", wrote, total))
	}
	return out, nil
}
