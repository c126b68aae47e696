// Package workload generates the input distributions used by the test suite
// and the experiment harness: random permutations (the paper's probabilistic
// claims are over the space of input permutations), 0-1 k-strings (for the
// generalized zero-one principle), bounded integers (for IntegerSort and
// RadixSort), and structured adversarial inputs that force the expected-pass
// algorithms into their fallback paths.
//
// Every generator is a pure function of its parameters and seed, so every
// experiment of go run ./cmd/experiments is exactly reproducible.  Generators
// allocate plain slices only — no pdm I/O, no arena memory — so workload
// construction never perturbs a machine's accounting; the planner
// (internal/plan) maps generator kinds onto its presortedness hint.
package workload
