package core

import (
	"fmt"

	"repro/internal/memsort"
	"repro/internal/pdm"
)

// ThreePass2 sorts in with the paper's Section 4 algorithm — the LMM sort
// specialized to B = √M, N ≤ M·√M (Lemma 4.1) — in three passes:
//
//	pass 1: form l = N/M runs of M keys, written unshuffled into m = √M
//	        parts of √M keys each (steps 1–2 combined);
//	pass 2: for each part index j, gather part j of every run in memory
//	        (l·√M ≤ M records per group, step 3) into L_j;
//	pass 3: shuffle the L_j and repair the ≤ l·m ≤ M dirtiness with the
//	        rolling local sort (step 4).
//
// No pass before the last sorts anything.  Pass 3 reads every L_j a whole
// B-key block at a time and sorts each memory load from scratch, so pass 2
// makes each L_j block-exact rather than merged — every block holds
// exactly the keys of its ranks, in unspecified order.  Lemma 4.1's
// dirtiness bound needs only that, for every threshold, the counts of the
// L_j below it differ by at most l; a run whose √M-key blocks each hold
// the keys of their ranks unshuffles into parts whose counts differ by at
// most one, as a sorted run's do (formRunsUnshuffled), so pass 1 makes its
// runs √M-block-exact instead of sorting them.  Pass counts, I/O and
// output are those of the sorted algorithm; only the order inside the
// scratch blocks of passes 1 and 2 is left to the split.
//
// Passes 1 and 3 always take exactly one pass.  Pass 2 gathers its groups in
// batches sized to whole D-block steps (mergeSkewStep): exactly one pass
// whenever such a batch fits in memory (always when l divides D), and
// otherwise the few extra steps of the cheapest batch that fits — at most
// 1.23 passes for l ≤ √M/4 and 1.49 up to √M on the power-of-two
// geometries from (256, 4) to (64Ki, 64).  lmmSteps counts the exact
// steps at every l.  N must be a positive multiple of M with N/M ≤ √M
// (lmm3Rules.Pad).
func ThreePass2(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, err := threePass2Range(a, in, 0, in.Len(), nil, true)
	if err != nil {
		return nil, err
	}
	return Finish(a, out, in.Len(), start, false), nil
}

// threePass2Range runs ThreePass2 over in[off:off+n].  When emit is nil the
// sorted output is written sequentially to a fresh stripe, which is
// returned; otherwise every sorted M-chunk is handed to emit (SevenPass uses
// this to combine its step 2 unshuffle with the final write) and the
// returned stripe is nil.
//
// ckpt marks the top-level three-pass invocation: only then does the range
// report pass boundaries through the array's checkpointer and honor an
// armed resume point (nested invocations — SevenPass superruns, the
// expected-algorithm fallbacks — are passes of someone else's structure,
// whose cumulative statistics a mid-range manifest could not reconstruct).
func threePass2Range(a *pdm.Array, in *pdm.Stripe, off, n int, emit emitFunc, ckpt bool) (*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if err := g.accept(AlgLMM3, n, lmm3Rules.Pad); err != nil {
		return nil, err
	}
	var (
		runs      []*pdm.Stripe
		merged    []seqView
		backing   []*pdm.Stripe
		startPass int
	)
	if ckpt {
		if cp := a.TakeResume(string(AlgLMM3), n); cp != nil {
			switch cp.Pass {
			case 1:
				runs, err = adoptStripes(a, cp.Stripes["runs"])
			case 2:
				backing, err = adoptStripes(a, cp.Stripes["backing"])
				if err == nil {
					merged, err = adoptViews(cp.Views, backing)
				}
			default:
				err = fmt.Errorf("%w: ThreePass2 manifest at pass %d", ErrResumeInvalid, cp.Pass)
			}
			if err != nil {
				return nil, err
			}
			startPass = cp.Pass
		}
	}
	if startPass < 1 {
		a.Arena().SetPhase("threepass2/runs")
		runs, err = formRunsUnshuffled(a, in, off, n, g.m, g.sqM) // pass 1
		if err != nil {
			return nil, err
		}
		if ckpt {
			if err := passDone(a, pdm.Checkpoint{Alg: string(AlgLMM3), Pass: 1, N: n}, func(cp *pdm.Checkpoint) error {
				cp.Stripes = map[string][]pdm.StripeRef{"runs": stripeRefs(runs)}
				return nil
			}); err != nil {
				freeAll(runs)
				return nil, err
			}
		}
	}
	if startPass < 2 {
		a.Arena().SetPhase("threepass2/merge")
		merged, backing, err = mergePartGroups(a, runs, g.sqM, g.sqM) // pass 2
		freeAll(runs)
		if err != nil {
			return nil, err
		}
		if ckpt {
			if err := passDone(a, pdm.Checkpoint{Alg: string(AlgLMM3), Pass: 2, N: n}, func(cp *pdm.Checkpoint) (err error) {
				cp.Stripes = map[string][]pdm.StripeRef{"backing": stripeRefs(backing)}
				cp.Views, err = viewRefs(merged, backing)
				return err
			}); err != nil {
				freeAll(backing)
				return nil, err
			}
		}
	}
	defer freeAll(backing)
	sk, err := newSink(a, n, emit)
	if err != nil {
		return nil, err
	}
	a.Arena().SetPhase("threepass2/cleanup")
	// Displacement after the shuffle is at most l·m = (N/M)·√M ≤ M, so the
	// M-chunk rolling clean below never overflows; an overflow would be an
	// implementation bug, not an input property.
	out, err := sk.close(shuffleCleanup(a, merged, g.m, sk.emit)) // pass 3
	if err != nil {
		return nil, fmt.Errorf("core: ThreePass2 internal error: %w", err)
	}
	a.Arena().SetPhase("")
	return out, nil
}

// lmm3Rules: N = l·M with l ≤ √M, in lmmSteps' steps, within runsEnvelope.
var lmm3Rules = Rules{
	Pad:      padRule(AlgLMM3, false, false),
	Capacity: anyKeys(func(mem int, _ float64) int { return mem * memsort.Isqrt(mem) }),
	Passes: func(mem, d, _, padded int, _ int64) (float64, float64, bool) {
		read, write := lmmSteps(mem, d, padded)
		return passesOf(read, mem, d, padded), passesOf(write, mem, d, padded), true
	},
	Envelope: runsEnvelope,
}

// padRule is the pad rule of the algorithms that sort N = l·M keys as l
// runs of M, or with superruns N = l²·M as l superruns of l·M: the least
// l ≥ 1 that covers n, raised to the next divisor of √M where divisor is
// set, and at most √M.
func padRule(alg Alg, superruns, divisor bool) func(mem, n int) (int, error) {
	return func(mem, n int) (int, error) {
		sq, runs := memsort.Isqrt(mem), max(memsort.CeilDiv(n, mem), 1)
		l, limit := runs, mem*sq
		if superruns {
			if l = memsort.Isqrt(runs); l*l < runs {
				l++
			}
			limit = mem * mem
		}
		for divisor && l <= sq && sq%l != 0 {
			l++
		}
		if l > sq {
			return 0, fmt.Errorf("%d keys exceed the %s capacity %d", n, string(alg), limit)
		}
		if superruns {
			return l * l * mem, nil
		}
		return l * mem, nil
	}
}

// runsEnvelope is the l·M family's disk envelope: the three-pass sorts
// peak at 4× the padded input, so 5× bounds them.
func runsEnvelope(_, _, padded int, _ int64) int { return 5 * padded }

// lmmSteps is ThreePass2's exact read and write step count on a padded
// l·M-key input with B = √M: one pass (padded/(D·B) steps) each for run
// formation and the shuffle cleanup, plus mergeSteps for pass 2's batch.
func lmmSteps(mem, d, padded int) (read, write int) {
	sq := memsort.Isqrt(mem)
	g, l := geometry{m: mem, b: sq, d: d}, padded/mem
	r2, w2 := mergeSteps(g, l, 1, sq, mergeSkewStep(g, l, 1, sq))
	pass := padded / (d * sq)
	return 2*pass + r2, 2*pass + w2
}
