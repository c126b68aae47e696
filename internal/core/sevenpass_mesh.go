package core

import (
	"repro/internal/memsort"
	"repro/internal/pdm"
)

// SevenPassMesh realizes the paper's Section 6.2 Remark ("we have designed
// matching mesh-based algorithms"): a seven-pass sort of up to M² keys
// whose superrun formation is the Section 3.1 *mesh* algorithm instead of
// the LMM algorithm.  Passes 1–3 run ThreePass1 over each l·M-key segment,
// with the final cleanup emitting the superrun unshuffled into √M
// subsequences (exactly like SevenPass combines its steps 1–2); passes 4–7
// are the shared outer (l, √M)-merge.
//
// The Conclusions note the authors' own mesh variant reached only M²/4
// keys; this composition — mesh run formation under the LMM merge skeleton
// — keeps the full N = l²·M ≤ M² range, supporting the paper's closing
// suggestion that "combining mesh-based techniques with those of [23] ...
// will yield even better results".
func SevenPassMesh(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, _, err := superrunMerge(a, in, AlgSevenMesh, func(off, n int, emit emitFunc) (bool, error) {
		_, err := threePass1Range(a, in, off, n, emit, false)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	return Finish(a, out, in.Len(), start, false), nil
}

// sevenMeshRules: SevenPass's rules, exact only where the inner mesh over
// the l·M-key superruns is even too.
var sevenMeshRules = Rules{
	Pad:      padRule(AlgSevenMesh, true, true),
	Capacity: sevenRules.Capacity,
	Passes: func(mem, d, n, padded int, u int64) (float64, float64, bool) {
		read, write, exact := sevenRules.Passes(mem, d, n, padded, u)
		return read, write, exact && meshEven(memsort.Isqrt(mem), memsort.Isqrt(padded/mem), d)
	},
	Envelope: superrunEnvelope,
}
