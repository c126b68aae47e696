package scenario

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/pdm"
	"repro/internal/stream"
)

// ErrOverflow reports that a filter pass found more survivors than its
// memory budget: the sampled threshold window was too generous (duplicate
// pileups, adversarial inputs).  Callers fall back to the full sort, like
// core's probabilistic algorithms fall back on cleanup overflow.
var ErrOverflow = errors.New("scenario: filter survivors exceeded the memory budget")

// FilterResult is one filtering pass's outcome.
type FilterResult struct {
	// Kept are the surviving keys in input order (not yet sorted).
	Kept []int64
	// Below counts keys strictly below the window's low edge.
	Below int
}

// Filter streams the padded input stripe once (a single charged read
// pass) and keeps the keys inside the threshold window: v ≤ hi, and
// v ≥ lo when hasLo is set, counting the keys below lo.  Padding
// sentinels (MaxInt64) never survive — callers must reject hi = MaxInt64
// before planning the pass.  At most cap survivors are held (one arena
// allocation); one more aborts with ErrOverflow.  The result holds a heap
// copy of the survivors; FilterKept lends them instead.
//
// The scan is sequential and single-buffered, so the result, the charged
// steps, and the I/O trace are identical for any worker count or
// backend.
func Filter(a *pdm.Array, in *pdm.Stripe, lo, hi int64, hasLo bool, cap int) (*FilterResult, error) {
	var res *FilterResult
	err := FilterKept(a, in, lo, hi, hasLo, cap, func(kept []int64, below int) error {
		res = &FilterResult{Kept: append([]int64(nil), kept...), Below: below}
		return nil
	})
	return res, err
}

// FilterKept is Filter without the copy: after the pass, with its stream
// closed, use gets the survivors in input order in the arena buffer that
// collected them (use may reorder them; the buffer is freed when use
// returns) and the count of keys below lo, and its error is FilterKept's.
func FilterKept(a *pdm.Array, in *pdm.Stripe, lo, hi int64, hasLo bool, cap int, use func(kept []int64, below int) error) error {
	padded := in.Len()
	stripe := a.StripeWidth()
	if padded <= 0 || padded%stripe != 0 {
		return fmt.Errorf("scenario: filter input %d is not stripe-padded (stripe %d)", padded, stripe)
	}
	if hi == math.MaxInt64 {
		return fmt.Errorf("scenario: filter threshold %d would keep the padding sentinels", hi)
	}
	if cap < 0 {
		cap = 0
	}
	a.Arena().SetPhase("scenario/filter")
	defer a.Arena().SetPhase("")
	kept, err := a.Arena().Alloc(cap)
	if err != nil {
		return err
	}
	defer a.Arena().Free(kept)
	nk, below, err := filterInto(a, in, lo, hi, hasLo, kept)
	if err != nil {
		return err
	}
	return use(kept[:nk], below)
}

// filterInto is FilterKept's pass: it streams in through one stripe
// buffer, collects the survivors into kept, and returns their count and
// the count below lo.
func filterInto(a *pdm.Array, in *pdm.Stripe, lo, hi int64, hasLo bool, kept []int64) (nk, below int, err error) {
	padded, stripe := in.Len(), a.StripeWidth()
	buf, err := a.Arena().Alloc(stripe)
	if err != nil {
		return 0, 0, err
	}
	defer a.Arena().Free(buf)
	rd, err := stream.NewStripeReader(in, 0, padded, stripe)
	if err != nil {
		return 0, 0, err
	}
	defer rd.Close()
	for off := 0; off < padded; off += stripe {
		if err := rd.FillFlat(buf); err != nil {
			return 0, 0, err
		}
		for _, v := range buf {
			if hasLo && v < lo {
				below++
				continue
			}
			if v > hi {
				continue
			}
			if nk == len(kept) {
				return 0, 0, ErrOverflow
			}
			kept[nk] = v
			nk++
		}
	}
	return nk, below, nil
}
