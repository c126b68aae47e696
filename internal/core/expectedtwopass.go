package core

import (
	"errors"
	"math"

	"repro/internal/pdm"
)

// expectedTwoPassCapacity returns the number of keys Theorem 5.1 certifies
// for two-pass sorting at confidence parameter α:
// N = M·√M / ((α+2)·ln M + 2).
func expectedTwoPassCapacity(m int, alpha float64) int {
	return int(float64(m) * math.Sqrt(float64(m)) / ((alpha+2)*math.Log(float64(m)) + 2))
}

// expectedTwoPassRuns returns the largest usable run count N1 = N/M for a
// PDM with memory m: the largest divisor of √M such that the Lemma 4.2
// displacement bound for N = N1·M keys split into M-key runs stays within
// the M-key cleanup window.  (Divisibility keeps every pass block-aligned.)
func expectedTwoPassRuns(m int, alpha float64) int {
	return largestDivisor(m, func(n1 int) bool {
		n := n1 * m
		bound := float64(n)/math.Sqrt(float64(m))*
			math.Sqrt((alpha+2)*math.Log(float64(n))+1) + float64(n)/float64(m)
		return bound <= float64(m)
	})
}

// exp2Rules: N = l·M with l dividing √M, in 2 passes or 3 more via
// ThreePass2.
var exp2Rules = Rules{
	Pad:      padRule(AlgExp2, false, true),
	Capacity: anyKeys(func(mem int, alpha float64) int { return expectedTwoPassRuns(mem, alpha) * mem }),
	Passes:   expectedPasses(2),
	Fallback: 3,
	Envelope: runsEnvelope,
}

// ExpectedTwoPass sorts in with the paper's Section 5 algorithm:
//
//	pass 1: form N1 = N/M runs of M keys each;
//	pass 2: shuffle the runs and repair the Lemma 4.2 displacement with the
//	        rolling local sort, tracking the largest key shipped out.
//
// Pass 2's t-th memory load is the t-th M/N1-key share of every run,
// sorted from scratch, so pass 1 leaves each run block-exact at that share
// rather than sorted (formRuns): every load holds the keys it would hold
// over sorted runs, and the output and the overflow decision are those of
// the paper's sorted runs, byte for byte.
//
// If the displacement ever exceeds the window — the paper's "problem
// detected" event — the partial output is discarded and the untouched input
// is re-sorted with ThreePass2 (Lemma 4.1), for 2+3 passes total.
//
// N must be a multiple of M with N1 = N/M dividing √M (block alignment of
// the shuffled reads; exp2Rules.Pad); Theorem 5.1 reliability needs N within
// M·√M / ((α+2)·ln M + 2) at confidence parameter α.
func ExpectedTwoPass(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, fellBack, err := expectedTwoPassRange(a, in, 0, in.Len(), nil)
	if err != nil {
		return nil, err
	}
	return Finish(a, out, in.Len(), start, fellBack), nil
}

// expectedTwoPassRange is ExpectedTwoPass over in[off:off+n] with an
// optional emit override (ExpectedSixPass feeds its unshuffling emitter
// here).  It reports whether the fallback path ran.
func expectedTwoPassRange(a *pdm.Array, in *pdm.Stripe, off, n int, emit emitFunc) (*pdm.Stripe, bool, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, false, err
	}
	if err := g.accept(AlgExp2, n, exp2Rules.Pad); err != nil {
		return nil, false, err
	}
	n1 := n / g.m
	a.Arena().SetPhase("expectedtwopass/runs")
	// Pass 2 reads M/N1 keys of every run per memory load, so the runs need
	// only be exact at that share.
	runs, err := formRuns(a, in, off, n, g.m, g.m/n1) // pass 1
	if err != nil {
		return nil, false, err
	}
	// Reporting-only boundary at the top-level invocation (nested calls
	// — ExpectedSixPass superruns, ExpectedThreePass segments — report
	// their own structure).  No resume manifest: the expected algorithm
	// must rerun its shuffle gamble from input to keep the fallback
	// decision deterministic.
	if emit == nil {
		if err := a.PassDone(pdm.Checkpoint{Alg: "exp2", Pass: 1, N: n}); err != nil {
			freeAll(runs)
			return nil, false, err
		}
	}
	sk, err := newSink(a, n, emit)
	if err != nil {
		freeAll(runs)
		return nil, false, err
	}
	a.Arena().SetPhase("expectedtwopass/cleanup")
	err = shuffleCleanup(a, viewsOf(runs), g.m, sk.emit) // pass 2
	freeAll(runs)
	a.Arena().SetPhase("")
	out, err := sk.close(err)
	if err == nil {
		return out, false, nil
	}
	if !errors.Is(err, ErrCleanupOverflow) {
		return nil, false, err
	}
	// Problem detected: abort, re-sort the untouched input with the
	// three-pass LMM algorithm, re-emitting through the caller's emitter.
	fb, err := threePass2Range(a, in, off, n, emit, false)
	if err != nil {
		return nil, true, err
	}
	return fb, true, nil
}
