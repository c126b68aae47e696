package plan

import (
	"repro/internal/core"
	"repro/internal/memsort"
)

// ExactPasses returns the measured-exact read/write pass counts for alg on
// this shape — the number a non-fallback forced run reports to the last
// bit — and whether the prediction is exact at all.
//
// basePasses is an expectation: it folds in the M^−α fallback surcharge
// and, off the counts below that it shares (lmm3's steps, the superrun
// family's outer merge), uses each algorithm's headline constant, which a
// run only meets on regular geometry.  Off it the implementations pay
// extra steps (vectored transfers that span fewer than D disks, column
// batches that straddle the stripe), so exactness is conditional:
//
//   - one: always exact — one read and one write step sequence, with the
//     final partial stripe still costing a whole step when the padded
//     length is not a stripe multiple.
//   - lmm3: always exact.  Passes 1 and 3 are one pass each; pass 2 costs
//     the steps core.LMMMergeSteps counts for its batch rule — exactly one
//     pass when the batch is a whole number of D-block steps that fits in
//     memory (always when l = N/M divides D), a little more otherwise.
//   - mesh3: exactly (3, 3) when the column pass is even — the G-column
//     batches map uniformly onto the disks (l ≡ 0 or G ≡ 0 mod D).
//   - exp2, mesh2e, exp3: exactly (2, 2) / (2, 2) / (3, 3) on runs that do
//     not fall back (FellBack reports the probabilistic event), provided
//     D < √M so the cleanup writes stay vectored.
//   - six, seven, sevenmesh: the outer merge moves l-block subsequences,
//     so when l < D three of its passes can only span l disks and cost
//     D/l× their ideal: exactly (3·D/l + 3) / (3·D/l + 4), bottoming out
//     at the paper's 6 / 7 once l ≥ D.  sevenmesh additionally needs its
//     inner mesh (over l·M-key superruns) to be even.
//   - radix: never exact — the MSD refinement adapts to the key
//     distribution (skewed inputs pay extra rounds), so only the
//     basePasses expectation exists.
//
// When exact is false the only guarantee is measured ≥ the ideal; callers
// (the pass-exactness property test, the scenario plans) must treat the
// prediction as a floor, not a promise.
func ExactPasses(shape Shape, w Workload, alg Alg) (read, write float64, exact bool) {
	padded, err := feasible(shape, w, alg)
	if err != nil {
		return 0, 0, false
	}
	sq := memsort.Isqrt(shape.Mem)
	d := shape.D
	switch alg {
	case OnePass:
		p := passesOf(memsort.CeilDiv(padded/shape.B, d), shape, padded)
		return p, p, true
	case LMM3:
		read, write := lmmSteps(shape, padded)
		return passesOf(read, shape, padded), passesOf(write, shape, padded), true
	case Mesh3:
		l := padded / shape.Mem
		if meshEven(sq, l, d) {
			return 3, 3, true
		}
	case Exp2:
		if d < sq {
			return 2, 2, true
		}
	case Mesh2e:
		if d < sq {
			return 2, 2, true
		}
	case Exp3:
		if d < sq {
			return 3, 3, true
		}
	case Six:
		if p, ok := outerMergePasses(padded, shape.Mem, d, 3); ok {
			return p, p, true
		}
	case Seven:
		if p, ok := outerMergePasses(padded, shape.Mem, d, 4); ok {
			return p, p, true
		}
	case SevenMesh:
		l := memsort.Isqrt(padded / shape.Mem)
		if p, ok := outerMergePasses(padded, shape.Mem, d, 4); ok && meshEven(sq, l, d) {
			return p, p, true
		}
	}
	return 0, 0, false
}

// meshEven reports whether ThreePass1's column pass maps evenly onto the
// disks for an l·M-key mesh: the pass reads G = min(√M/l, √M) columns of
// l blocks per batch from per-column skewed stripes, and the batch covers
// every disk the same number of times iff l or G is a multiple of D.
func meshEven(sq, l, d int) bool {
	if l < 1 || d >= sq {
		return false
	}
	if l%d == 0 {
		return true
	}
	batch := sq / l
	if batch < 1 {
		batch = 1
	}
	if batch > sq {
		batch = sq
	}
	return batch%d == 0
}

// outerMergePasses is the exact count for the recursive six/seven-pass
// algorithms, base being their passes outside the outer merge (3 for six,
// 4 for seven): base + 3 when the l-block subsequence stripes span the
// disks (D | l), base + 3·(D/l) when three of the outer merge's passes
// shrink to l-disk parallelism (l | D, l < D).  Other ratios are not exact.
func outerMergePasses(padded, mem, d, base int) (float64, bool) {
	l := memsort.Isqrt(padded / mem)
	if l < 1 || l*l*mem != padded {
		return 0, false
	}
	switch {
	case l >= d && l%d == 0:
		return float64(base + 3), true
	case l < d && d%l == 0:
		return float64(3*(d/l) + base), true
	}
	return 0, false
}

// lmmSteps is ThreePass2's exact read and write step count on a padded
// l·M-key input: one pass (padded/(D·B) steps) each for run formation and
// the shuffle cleanup, plus the (l, m)-merge's pass 2.
func lmmSteps(shape Shape, padded int) (read, write int) {
	pass := padded / shape.Stripe()
	r2, w2 := core.LMMMergeSteps(shape.Mem, shape.D, padded/shape.Mem)
	return 2*pass + r2, 2*pass + w2
}

// passesOf converts steps to passes over padded keys exactly as the
// measured report does (pdm.Stats.ReadPasses), so equal steps compare equal.
func passesOf(steps int, shape Shape, padded int) float64 {
	return float64(steps) * float64(shape.Stripe()) / float64(padded)
}
