package core

import (
	"errors"
	"fmt"

	"repro/internal/pdm"
)

// ErrResumeInvalid marks a checkpoint manifest that does not describe a
// resumable state for the algorithm claiming it.  The scheduler treats
// it (like any other resume-attempt failure) as "restart from input".
var ErrResumeInvalid = errors.New("core: resume checkpoint invalid")

// stripeRefs collects placement records for a checkpoint manifest.
func stripeRefs(ss []*pdm.Stripe) []pdm.StripeRef {
	refs := make([]pdm.StripeRef, len(ss))
	for i, s := range ss {
		refs[i] = s.Ref()
	}
	return refs
}

// adoptStripes rebuilds stripe handles from manifest records.
func adoptStripes(a *pdm.Array, refs []pdm.StripeRef) ([]*pdm.Stripe, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("%w: no stripes in manifest", ErrResumeInvalid)
	}
	out := make([]*pdm.Stripe, len(refs))
	for i, r := range refs {
		s, err := a.AdoptStripe(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrResumeInvalid, err)
		}
		out[i] = s
	}
	return out, nil
}

// viewRefs serializes strided merge views against their backing-stripe
// list for a checkpoint manifest.
func viewRefs(views []seqView, backing []*pdm.Stripe) ([]pdm.ViewRef, error) {
	index := make(map[*pdm.Stripe]int, len(backing))
	for i, s := range backing {
		index[s] = i
	}
	refs := make([]pdm.ViewRef, len(views))
	for i, v := range views {
		bi, ok := index[v.s]
		if !ok {
			return nil, fmt.Errorf("core: view %d not on a backing stripe", i)
		}
		refs[i] = pdm.ViewRef{Stripe: bi, StartBlk: v.startBlk, StrideBlk: v.strideBlk, Keys: v.keys}
	}
	return refs, nil
}

// adoptViews is the inverse of viewRefs over already-adopted backing
// stripes.
func adoptViews(refs []pdm.ViewRef, backing []*pdm.Stripe) ([]seqView, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("%w: no views in manifest", ErrResumeInvalid)
	}
	views := make([]seqView, len(refs))
	for i, r := range refs {
		if r.Stripe < 0 || r.Stripe >= len(backing) {
			return nil, fmt.Errorf("%w: view %d references stripe %d of %d", ErrResumeInvalid, i, r.Stripe, len(backing))
		}
		if r.Keys <= 0 || r.StrideBlk <= 0 || r.StartBlk < 0 {
			return nil, fmt.Errorf("%w: view %d has shape %+v", ErrResumeInvalid, i, r)
		}
		views[i] = seqView{s: backing[r.Stripe], startBlk: r.StartBlk, strideBlk: r.StrideBlk, keys: r.Keys}
	}
	return views, nil
}
