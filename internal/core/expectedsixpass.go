package core

import (
	"math"

	"repro/internal/pdm"
)

// ExpectedSixPassCapacity returns the key count Theorem 6.3 certifies for
// six-pass sorting: M² / √((α+2)·ln M + 2).
func ExpectedSixPassCapacity(m int, alpha float64) int {
	return int(float64(m) * float64(m) / math.Sqrt((alpha+2)*math.Log(float64(m))+2))
}

// ExpectedSixPass sorts in with the paper's Section 6.2 algorithm: SevenPass
// with its three-pass superrun formation replaced by the two-pass
// ExpectedTwoPass (runs of length l·M each, l ≤ the ExpectedTwoPass window),
// for six passes in total when no segment needs the fallback.
//
// If a segment's cleanup detects overflow, that segment alone is re-sorted
// with ThreePass2 (three extra passes over l·M keys) and the result is
// flagged FellBack; the merge phases are unconditional and exact.
//
// N must equal l²·M with l dividing √M.  The reliable-regime capacity is
// bounded by both ExpectedSixPassCapacity and the expectedTwoPassRuns
// window for the segment length l·M.
func ExpectedSixPass(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	// Passes 1-2 (expected) form the superruns; passes 3-6 are the outer
	// merge, shared with SevenPass.
	out, fellBack, err := superrunMerge(a, in, AlgSix, func(off, n int, emit emitFunc) (bool, error) {
		_, fb, err := expectedTwoPassRange(a, in, off, n, emit)
		return fb, err
	})
	if err != nil {
		return nil, err
	}
	return Finish(a, out, in.Len(), start, fellBack), nil
}

// sixRules: SevenPass's, with 3 expected passes per superrun, so l must
// fit the ExpectedTwoPass window.
var sixRules = Rules{
	Pad: padRule(AlgSix, true, true),
	Capacity: anyKeys(func(mem int, alpha float64) int {
		l := expectedTwoPassRuns(mem, alpha) // a divisor of √M
		return l * l * mem
	}),
	Passes:   superrunPasses(3),
	Fallback: 7,
	Envelope: superrunEnvelope,
}
