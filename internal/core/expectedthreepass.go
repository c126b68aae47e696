package core

import (
	"errors"
	"math"

	"repro/internal/memsort"
	"repro/internal/pdm"
)

// ExpectedThreePassCapacity returns the key count Theorem 6.1 certifies for
// three-pass sorting: M^1.75 / ((α+2)·ln M + 2)^(3/4).
func ExpectedThreePassCapacity(m int, alpha float64) int {
	return int(math.Pow(float64(m), 1.75) / math.Pow((alpha+2)*math.Log(float64(m))+2, 0.75))
}

// ExpectedThreePass sorts in with the paper's Section 6 algorithm:
//
//	passes 1-2 (expected): form N2 = N/(l·M) long runs of l·M keys each
//	        using ExpectedTwoPass on each segment;
//	pass 3: shuffle the N2 long runs and repair the Lemma 4.2 displacement
//	        with the rolling local sort, exactly as in ExpectedTwoPass's
//	        second pass.
//
// Failures are detected by the largest-key-shipped check at either level.
// A segment-level overflow falls back to ThreePass2 on that segment (+3
// passes over it); an overflow in the final pass falls back to SevenPass on
// the whole input (+7 passes), the alternate the paper names in Section 6.
//
// N must equal l²·M with l dividing √M (padRule, so the fallback
// geometry is always valid); the reliable-regime capacity is
// ExpectedThreePassCapacity.
func ExpectedThreePass(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	n := in.Len()
	if err := g.accept(AlgExp3, n, exp3Rules.Pad); err != nil {
		return nil, err
	}
	l := memsort.Isqrt(n / g.m)
	start := a.Stats()
	segLen := l * g.m

	// Passes 1-2 (expected): long runs via ExpectedTwoPass per segment.
	longRuns := make([]*pdm.Stripe, l)
	fellBack := false
	for i := 0; i < l; i++ {
		// Each long run lives on its own skewed stripe; skews are spaced
		// by the per-chunk block count √M/l so the final shuffled reads
		// tile the disks exactly.
		run, fb, err := expectedTwoPassSkewed(a, in, i*segLen, segLen, i*(g.sqM/l))
		if err != nil {
			freeAll(longRuns)
			return nil, err
		}
		fellBack = fellBack || fb
		longRuns[i] = run
	}

	// Pass 3: shuffle the long runs + rolling cleanup.
	a.Arena().SetPhase("expectedthreepass/cleanup")
	out, err := a.NewStripe(n)
	if err != nil {
		freeAll(longRuns)
		return nil, err
	}
	err = shuffleCleanup(a, viewsOf(longRuns), g.m, SequentialEmit(out))
	freeAll(longRuns)
	a.Arena().SetPhase("")
	if err == nil {
		return Finish(a, out, n, start, fellBack), nil
	}
	out.Free()
	if !errors.Is(err, ErrCleanupOverflow) {
		return nil, err
	}
	// Final-pass overflow: the paper's named alternate is the seven-pass
	// algorithm on the whole (untouched) input.
	res, err := SevenPass(a, in)
	if err != nil {
		return nil, err
	}
	return Finish(a, res.Out, n, start, true), nil
}

// expectedTwoPassSkewed runs expectedTwoPassRange over in[off:off+n] but
// writes the sorted result to a stripe with the given skew (the emit path
// writes sequentially, so only the stripe allocation differs).
func expectedTwoPassSkewed(a *pdm.Array, in *pdm.Stripe, off, n, skew int) (*pdm.Stripe, bool, error) {
	out, err := a.NewStripeSkew(n, skew)
	if err != nil {
		return nil, false, err
	}
	_, fb, err := expectedTwoPassRange(a, in, off, n, SequentialEmit(out))
	if err != nil {
		out.Free()
		return nil, false, err
	}
	return out, fb, nil
}

// exp3Rules: N = l²·M with l dividing √M, reliable within
// ExpectedThreePassCapacity, in 3 passes or 7 more via SevenPass.
var exp3Rules = Rules{
	Pad: padRule(AlgExp3, true, true),
	Capacity: anyKeys(func(mem int, alpha float64) int {
		l := largestDivisor(mem, func(l int) bool {
			return l*l*mem <= ExpectedThreePassCapacity(mem, alpha)
		})
		return l * l * mem
	}),
	Passes:   expectedPasses(3),
	Fallback: 7,
	Envelope: func(_, _, padded int, _ int64) int { return 8 * padded },
}
