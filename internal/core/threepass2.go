package core

import (
	"fmt"

	"repro/internal/pdm"
	"repro/internal/stream"
)

// ThreePass2 sorts in with the paper's Section 4 algorithm — the LMM sort
// specialized to B = √M, N ≤ M·√M (Lemma 4.1) — in exactly three passes:
//
//	pass 1: form l = N/M sorted runs of M keys, written unshuffled into
//	        m = √M parts of √M keys each (steps 1–2 combined);
//	pass 2: for each part index j, merge part j of every run in memory
//	        (l·√M ≤ M records per merge, step 3);
//	pass 3: shuffle the merged sequences and repair the ≤ l·m ≤ M dirtiness
//	        with the rolling local sort (step 4).
//
// N must be a positive multiple of M with N/M ≤ √M.
func ThreePass2(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, err := threePass2Range(a, in, 0, in.Len(), nil, true)
	if err != nil {
		return nil, err
	}
	return finish(a, out, in.Len(), start, false), nil
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
	if n <= 0 || n%g.m != 0 || n/g.m > g.sqM {
		return nil, fmt.Errorf("core: ThreePass2 needs N a multiple of M with N/M <= sqrt(M); N = %d, M = %d", n, g.m)
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
			if err := a.PassDone(pdm.Checkpoint{Alg: string(AlgLMM3), Pass: 1, N: n,
				Stripes: map[string][]pdm.StripeRef{"runs": stripeRefs(runs)}}); err != nil {
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
			freeAll(backing)
			return nil, err
		}
		if ckpt {
			vrefs, verr := viewRefs(merged, backing)
			if verr == nil {
				verr = a.PassDone(pdm.Checkpoint{Alg: string(AlgLMM3), Pass: 2, N: n,
					Stripes: map[string][]pdm.StripeRef{"backing": stripeRefs(backing)},
					Views:   vrefs})
			}
			if verr != nil {
				freeAll(backing)
				return nil, verr
			}
		}
	}
	defer freeAll(backing)
	var out *pdm.Stripe
	var w *stream.Writer
	if emit == nil {
		out, err = a.NewStripe(n)
		if err != nil {
			return nil, err
		}
		w, err = stream.NewWriter(a)
		if err != nil {
			out.Free()
			return nil, err
		}
		emit = streamEmit(w, out)
	}
	a.Arena().SetPhase("threepass2/cleanup")
	// Displacement after the shuffle is at most l·m = (N/M)·√M ≤ M, so the
	// M-chunk rolling clean below never overflows; an overflow would be an
	// implementation bug, not an input property.
	err = shuffleCleanup(a, merged, g.m, emit) // pass 3
	if w != nil {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if out != nil {
			out.Free()
		}
		return nil, fmt.Errorf("core: ThreePass2 internal error: %w", err)
	}
	a.Arena().SetPhase("")
	return out, nil
}
