// Package plan is the analytical query planner: it operationalizes the
// paper's pass-count analysis (every algorithm in Rajasekaran & Sen is
// "optimal" only in a specific (N, M, B, D) regime) as a cost model that,
// for a workload shape (key count, payload volume, integer universe,
// presortedness hint) and a machine shape (M, B, D, block latency, worker
// width, pipeline depths), predicts for every candidate algorithm:
//
//   - the padded input length its geometry forces (the silent cost the old
//     capacity-threshold planner ignored),
//   - read/write passes seeded from the paper's closed forms (§3–§7), with
//     an expected-fallback surcharge of M^−α·(fallback passes) for the
//     probabilistic algorithms,
//   - I/O words and parallel steps, including the payload permutation's
//     distribution levels for full-record sorts (internal/records),
//   - and wall time, by pricing steps and compute with a Calibration — a
//     one-shot micro-probe (tiny stripe transfers and an in-memory sort on
//     the real backend) cached per machine shape.
//
// Choice and pricing are deliberately split.  Choose — the Auto path —
// always ranks under the fixed analytic default calibration on the bare
// geometry, so for a given (N, M, B, D, α) it is a pure function: no
// probe, no worker-count or backend dependence, and exact ties (e.g.
// ThreePass1 vs ThreePass2: same passes, same padding) break by a fixed
// canonical order.  That keeps Auto deterministic — bit-identical
// scheduler-vs-dedicated and worker-count comparisons stay valid.
// Explain prices the same candidates with the measured calibration; on a
// latency-heavy shape its ranking can disagree with Choose at the margin
// (where the compute/I/O balance flips between a 2-pass candidate with
// heavier padding and a snug 3-pass one), which the facade leaves
// visible: repro.Machine.Explain pins Chosen to the Auto choice while the
// ranked table shows what the calibrated model would prefer.
//
// Accounting contract: the planner only predicts; it charges nothing.
// Predictions are in the paper's currency (passes over the padded length)
// plus seconds; the measured Report remains the source of truth, and the
// bench/ workloads record the predicted-vs-measured drift as
// plan.prediction_rel_error.
package plan
