package core

import (
	"math"
)

// lowerBoundIOs returns the Arge–Knudsen–Larsen lower bound on the number
// of block I/O operations any comparison-based algorithm needs to sort n
// keys on a single disk with block size b and memory m (Lemma 2.1's source):
//
//	log(N!) ≤ N·log B + I·(B·log((M−B)/B) + 3B)
//
// solved for I.  Logs are base 2; log(N!) is computed exactly via lgamma.
func lowerBoundIOs(n, m, b int) float64 {
	if n <= 1 || b <= 0 || m <= b {
		return 0
	}
	lgFact, _ := math.Lgamma(float64(n) + 1)
	lgFact /= math.Ln2
	num := lgFact - float64(n)*math.Log2(float64(b))
	den := float64(b)*math.Log2(float64(m-b)/float64(b)) + 3*float64(b)
	if den <= 0 || num <= 0 {
		return 0
	}
	return num / den
}

// LowerBoundPasses returns the Arge–Knudsen–Larsen lower bound on the
// block I/Os of any comparison sort of n keys in read passes: one pass
// over n keys is n/b block reads (the PDM with D disks performs them D at
// a time, which changes the wall-clock but not the pass count, so the
// bound holds for the PDM as well — the argument of Lemma 2.1).
func LowerBoundPasses(n, m, b int) float64 {
	ios := lowerBoundIOs(n, m, b)
	return ios * float64(b) / float64(n)
}
