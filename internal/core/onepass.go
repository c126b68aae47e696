package core

import (
	"fmt"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// OnePass sorts an input that fits in internal memory — N ≤ M — in a
// single load-sort-store: one streamed read pass, one in-memory sort on
// the worker pool, one streamed write pass.  The paper takes this regime
// as given (every algorithm bottoms out in "sort a memory load"), but the
// planner needs it as an explicit candidate: without it, Auto used to run
// ThreePass2 degenerately on one run — three passes where one suffices.
//
// N must be a positive multiple of B with N ≤ M (oneRules.Pad).
func OnePass(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	n := in.Len()
	if err := g.accept(AlgOne, n, oneRules.Pad); err != nil {
		return nil, err
	}
	start := a.Stats()
	a.Arena().SetPhase("onepass/load")
	buf, err := a.Arena().Alloc(n)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	var out *pdm.Stripe
	err = stream.Pass(a, 1, segments(in, 0, n), buf, func(_ int, keys []int64, w *stream.Writer) error {
		a.Arena().SetPhase("onepass/sort")
		a.Pool().SortKeys(keys)
		a.Arena().SetPhase("onepass/store")
		var err error
		if out, err = a.NewStripe(n); err != nil {
			return err
		}
		return w.WriteStripe(out, 0, keys)
	})
	if err != nil {
		if out != nil {
			out.Free()
		}
		return nil, err
	}
	return Finish(a, out, n, start, false), nil
}

// oneRules: N ≤ M in whole blocks, holding only the input and output.
var oneRules = Rules{
	Pad: func(mem, n int) (int, error) {
		if n > mem {
			return 0, fmt.Errorf("%d keys exceed the one-pass capacity M = %d", n, mem)
		}
		sq := memsort.Isqrt(mem)
		return memsort.CeilDiv(max(n, 1), sq) * sq, nil
	},
	Capacity: anyKeys(func(mem int, _ float64) int { return mem }),
	Passes: func(mem, d, _, padded int, _ int64) (float64, float64, bool) {
		p := passesOf(memsort.CeilDiv(padded/memsort.Isqrt(mem), d), mem, d, padded)
		return p, p, true
	},
	Envelope: func(_, _, padded int, _ int64) int { return 2 * padded },
}
