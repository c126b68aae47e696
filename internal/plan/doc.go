// Package plan is the analytical query planner: it operationalizes the
// paper's pass-count analysis (every algorithm in Rajasekaran & Sen is
// "optimal" only in a specific (N, M, B, D) regime) as a cost model that,
// for a workload shape (key count, payload volume, integer universe,
// presortedness hint) and a machine shape (M, B, D, block latency, worker
// width, pipeline depths), predicts for every candidate algorithm:
//
//   - the padded input length its geometry forces (the silent cost the old
//     capacity-threshold planner ignored),
//   - read/write passes from the paper's closed forms (§3–§7), exact where
//     the row says so, with an expected-fallback surcharge of
//     M^−α·(fallback passes) for the probabilistic algorithms,
//   - I/O words and parallel steps, including the payload permutation's
//     distribution levels for full-record sorts (internal/records),
//   - and wall time, by pricing steps and compute with a Calibration — a
//     one-shot micro-probe (tiny stripe transfers and an in-memory sort on
//     the real backend) cached per machine shape.
//
// Each algorithm's pad rule, capacity, passes and disk envelope are its
// row of core's algorithm table (core.Rules), declared beside its run
// function; this package reads the rows and adds the costing around them.
//
// Explain gives one answer.  Its rows come in the order Auto chooses:
// feasible first, then by the seconds the fixed analytic default
// calibration prices on the bare (M, B, D, α) geometry for the workload's
// N and universe, and exact ties (e.g. ThreePass1 vs ThreePass2: same
// passes, same padding) keep a fixed canonical order.  No probe, worker
// count or backend enters that order, so Auto — Choose, the first row —
// is a pure function of the geometry, which keeps bit-identical
// scheduler-vs-dedicated and worker-count comparisons valid.  The seconds
// columns are priced with the calibration the caller passes (the facade's
// measured one), and a row's calibrated seconds may be lower than those of
// a row above it.
//
// Accounting contract: the planner only predicts; it charges nothing.
// Predictions are in the paper's currency (passes over the padded length)
// plus seconds; the measured Report remains the source of truth, and the
// bench/ workloads record the predicted-vs-measured drift as
// plan.prediction_rel_error.
package plan
