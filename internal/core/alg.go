package core

import (
	"fmt"
	"strings"

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
}

// algs is the one table behind every spelling of an algorithm: parsing,
// both text forms, the usage strings, and the run dispatch all read it.
// run is nil for the two entries that are not a plain comparison sort of a
// stripe: Auto (resolved by the planner first) and Radix (needs the key
// universe; RadixSort is its entry point).
var algs = []algEntry{
	{AlgAuto, "auto", "Auto", nil},
	{AlgOne, "one", "OnePass (memory load)", OnePass},
	{AlgMesh3, "mesh3", "ThreePass1", ThreePass1},
	{AlgMesh2e, "mesh2e", "ExpThreePass1 (2-pass mesh)", ExpTwoPassMesh},
	{AlgLMM3, "lmm3", "ThreePass2", ThreePass2},
	{AlgExp2, "exp2", "ExpectedTwoPass", ExpectedTwoPass},
	{AlgExp3, "exp3", "ExpectedThreePass", ExpectedThreePass},
	{AlgSeven, "seven", "SevenPass", SevenPass},
	{AlgSix, "six", "ExpectedSixPass", ExpectedSixPass},
	{AlgSevenMesh, "sevenmesh", "SevenPassMesh (Remark 6.2)", SevenPassMesh},
	{AlgRadix, "radix", "RadixSort", nil},
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

// Run sorts the padded input stripe with the algorithm.
func (a Alg) Run(arr *pdm.Array, in *pdm.Stripe) (*Result, error) {
	if e := a.entry(); e != nil && e.run != nil {
		return e.run(arr, in)
	}
	return nil, fmt.Errorf("core: %v is not a runnable comparison sort", a)
}
