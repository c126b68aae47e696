package core

import (
	"fmt"
	"strings"

	"repro/internal/memsort"
	"repro/internal/pdm"
)

// Alg identifies one of the paper's algorithms.  It is the one algorithm
// identity in the repository: the value is the short name the CLI flags,
// the job descriptor's "alg" field, the planner's tables, and the resume
// tags in checkpoint manifests all spell (the facade's repro.Algorithm and
// the planner's plan.Alg are aliases of it).
type Alg string

// The algorithms.  AlgAuto is the zero value, so an unset selector means
// "let the planner pick".
const (
	AlgAuto      Alg = ""          // the planner's cheapest feasible pick
	AlgOne       Alg = "one"       // load-sort-store, N ≤ M
	AlgMesh3     Alg = "mesh3"     // §3.1 ThreePass1 (mesh)
	AlgMesh2e    Alg = "mesh2e"    // §3.2 two-pass mesh variant
	AlgLMM3      Alg = "lmm3"      // §4 ThreePass2 (LMM)
	AlgExp2      Alg = "exp2"      // §5 ExpectedTwoPass
	AlgExp3      Alg = "exp3"      // §6 ExpectedThreePass
	AlgSeven     Alg = "seven"     // §6.1 SevenPass
	AlgSix       Alg = "six"       // §6.2 ExpectedSixPass
	AlgSevenMesh Alg = "sevenmesh" // §6.2 Remark mesh variant
	AlgRadix     Alg = "radix"     // §7 RadixSort (integer keys)
)

type algEntry struct {
	id    Alg
	name  string // short name: the CLI/wire spelling
	paper string // the name as the paper (and the reports) print it
	run   func(*pdm.Array, *pdm.Stripe) (*Result, error)
	Rules
}

// Rules are an algorithm's geometry and cost, declared beside its run
// function.  The planner (internal/plan) imports core, so they take plain
// machine values: M keys of memory, D disks, B = √M.
type Rules struct {
	// Pad maps n keys to the least length the algorithm runs on, or says
	// why none fits; the run function accepts exactly Pad's fixed points.
	Pad func(mem, n int) (int, error)
	// Capacity is the largest padded length the pass theorem covers at α,
	// or why the algorithm cannot sort the workload at all.
	Capacity func(mem int, alpha float64, universe int64, payloads bool) (int, error)
	// Passes predicts the read and write passes of a run that does not
	// fall back, and whether they are exact; where not, they are a floor.
	Passes func(mem, d, n, padded int, universe int64) (read, write float64, exact bool)
	// Fallback is the passes the failure event (probability ≤ M^−α) adds.
	Fallback float64
	// Envelope bounds the disk high-water, input included, before slack.
	Envelope func(mem, d, padded int, universe int64) int
}

// algs is the one table behind every spelling of an algorithm: parsing,
// both text forms, the usage strings, the run dispatch, and the planner's
// pad rule, capacity, pass count and disk envelope all read it.  run is
// nil for Auto (resolved by the planner first; no Rules) and Radix (needs
// the key universe; RadixSort is its entry point).  Each row's comment
// says when its Passes are exact (D < √M keeps cleanup writes vectored).
var algs = []algEntry{
	{AlgAuto, "auto", "Auto", nil, Rules{}},
	{AlgOne, "one", "OnePass (memory load)", OnePass, oneRules},                              // always
	{AlgMesh3, "mesh3", "ThreePass1", ThreePass1, mesh3Rules},                                // on even meshes (meshEven)
	{AlgMesh2e, "mesh2e", "ExpThreePass1 (2-pass mesh)", ExpTwoPassMesh, mesh2eRules},        // no fallback, D < √M
	{AlgLMM3, "lmm3", "ThreePass2", ThreePass2, lmm3Rules},                                   // always (lmmSteps)
	{AlgExp2, "exp2", "ExpectedTwoPass", ExpectedTwoPass, exp2Rules},                         // no fallback, D < √M
	{AlgExp3, "exp3", "ExpectedThreePass", ExpectedThreePass, exp3Rules},                     // no fallback, D < √M
	{AlgSeven, "seven", "SevenPass", SevenPass, sevenRules},                                  // D | l or l | D
	{AlgSix, "six", "ExpectedSixPass", ExpectedSixPass, sixRules},                            // as seven, no fallback
	{AlgSevenMesh, "sevenmesh", "SevenPassMesh (Remark 6.2)", SevenPassMesh, sevenMeshRules}, // as seven, on even meshes
	{AlgRadix, "radix", "RadixSort", nil, radixRules},                                        // never: adapts to the keys
}

// entry returns a's row of the table, nil for a value it does not hold.
func (a Alg) entry() *algEntry {
	for i := range algs {
		if algs[i].id == a {
			return &algs[i]
		}
	}
	return nil
}

// AlgNames returns the short names in table order, "|"-joined: the text of
// every -alg usage string and "want …" error.
func AlgNames() string {
	names := make([]string, len(algs))
	for i, e := range algs {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

// ParseAlg maps a short name onto its Alg; the empty string means Auto.
func ParseAlg(name string) (Alg, error) {
	for _, e := range algs {
		if name == e.name || name == string(e.id) {
			return e.id, nil
		}
	}
	return "", fmt.Errorf("unknown algorithm %q (want %s)", name, AlgNames())
}

// String names the algorithm as in the paper.
func (a Alg) String() string {
	if e := a.entry(); e != nil {
		return e.paper
	}
	return fmt.Sprintf("Alg(%q)", string(a))
}

// MarshalText is the short name ("auto" for the zero value), so reports
// and descriptors serialize an algorithm the way the CLI spells it.
func (a Alg) MarshalText() ([]byte, error) {
	if e := a.entry(); e != nil {
		return []byte(e.name), nil
	}
	return []byte(a), nil
}

// UnmarshalText parses a short name, rejecting unknown ones at decode time.
func (a *Alg) UnmarshalText(text []byte) (err error) {
	*a, err = ParseAlg(string(text))
	return err
}

// Rules returns the algorithm's row of rules (zero for Auto and unknowns).
func (a Alg) Rules() Rules {
	if e := a.entry(); e != nil {
		return e.Rules
	}
	return Rules{}
}

// Run sorts the padded input stripe with the algorithm.
func (a Alg) Run(arr *pdm.Array, in *pdm.Stripe) (*Result, error) {
	if e := a.entry(); e != nil && e.run != nil {
		return e.run(arr, in)
	}
	return nil, fmt.Errorf("core: %v is not a runnable comparison sort", a)
}

// accept is every run function's one shape check: n keys must be a fixed
// point of the algorithm's pad rule, so what the planner pads to runs.
func (g geometry) accept(alg Alg, n int, pad func(mem, n int) (int, error)) error {
	if p, err := pad(g.m, n); n <= 0 || err != nil || p != n {
		return fmt.Errorf("core: %v does not run on N = %d keys at M = %d (its geometry pads to %d)", alg, n, g.m, p)
	}
	return nil
}

// anyKeys is a comparison sort's Capacity: any keys and payloads, to limit.
func anyKeys(limit func(mem int, alpha float64) int) func(int, float64, int64, bool) (int, error) {
	return func(mem int, alpha float64, _ int64, _ bool) (int, error) { return limit(mem, alpha), nil }
}

// expectedPasses is the Passes of an expected algorithm: k without a
// fallback, exact while D < √M.
func expectedPasses(k float64) func(mem, d, n, padded int, universe int64) (float64, float64, bool) {
	return func(mem, d, _, _ int, _ int64) (float64, float64, bool) { return k, k, d < memsort.Isqrt(mem) }
}

// passesOf converts steps to passes over padded keys as pdm.Stats does.
func passesOf(steps, mem, d, padded int) float64 {
	return float64(steps) * float64(d*memsort.Isqrt(mem)) / float64(padded)
}

// largestDivisor returns the largest divisor l of √M that passes ok, or 1.
func largestDivisor(mem int, ok func(l int) bool) int {
	sq := memsort.Isqrt(mem)
	for l := sq; l > 1; l-- {
		if sq%l == 0 && ok(l) {
			return l
		}
	}
	return 1
}
