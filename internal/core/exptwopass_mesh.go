package core

import (
	"errors"

	"repro/internal/pdm"
)

// ExpTwoPassMesh sorts in with the Section 3.2 variant of the mesh
// algorithm (Theorem 3.2): Step 1 (the submesh sort) is skipped, leaving
// two passes — sort the columns of the (N/√M)×√M mesh view, then the
// rolling cleanup.  Without the submesh pass the dirty band after the
// column sort is only probabilistically small (O(√(rows·log)) rows for a
// random input permutation), so the cleanup verifies its emission order and
// on overflow the algorithm falls back to ThreePass2 on the untouched
// input, exactly as the paper prescribes (2 passes w.h.p., 2+3 on failure).
//
// The mesh view assigns column c the input range [c·(N/√M), (c+1)·(N/√M));
// any fixed relabeling is legitimate since the input is an arbitrary
// striped multiset.  N must be a multiple of M with N/M dividing √M, the
// planner's reliable geometry for both two-pass algorithms (mesh2eRules);
// the Theorem 3.2 capacity for reliable two-pass behaviour is
// N ≈ M·√M / (c·α·ln M).
func ExpTwoPassMesh(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	n := in.Len()
	if err := g.accept(AlgMesh2e, n, mesh2eRules.Pad); err != nil {
		return nil, err
	}
	l := n / g.m
	start := a.Stats()
	colLen := n / g.sqM // rows of the mesh view; ≤ M since l ≤ √M

	// Pass 1: sort columns.  Column c = in[c·colLen, (c+1)·colLen).
	a.Arena().SetPhase("exptwopassmesh/columns")
	bands := make([]*pdm.Stripe, l)
	for j := range bands {
		s, err := a.NewStripeSkew(g.m, j)
		if err != nil {
			return nil, err
		}
		bands[j] = s
	}
	err = columnPass(a, bands, func(dst []pdm.BlockAddr, c0, cnt int) []pdm.BlockAddr {
		return stripeAddrs(dst, in, c0*colLen, cnt*colLen)
	})
	if err != nil {
		freeAll(bands)
		return nil, err
	}

	// Pass 2: rolling cleanup over the bands, with detection.
	a.Arena().SetPhase("exptwopassmesh/cleanup")
	sk, err := newSink(a, n, nil)
	if err != nil {
		freeAll(bands)
		return nil, err
	}
	err = bandCleanup(a, bands, sk.emit)
	freeAll(bands)
	a.Arena().SetPhase("")
	out, err := sk.close(err)
	if err == nil {
		return Finish(a, out, n, start, false), nil
	}
	if !errors.Is(err, ErrCleanupOverflow) {
		return nil, err
	}
	// Problem detected: abort and re-sort with the Lemma 4.1 algorithm.
	fallback, err := threePass2Range(a, in, 0, n, nil, false)
	if err != nil {
		return nil, err
	}
	return Finish(a, fallback, n, start, true), nil
}

// mesh2eRules: ExpectedTwoPass's rules under the mesh variant's name.
var mesh2eRules = Rules{padRule(AlgMesh2e, false, true), exp2Rules.Capacity, exp2Rules.Passes, exp2Rules.Fallback, runsEnvelope}
