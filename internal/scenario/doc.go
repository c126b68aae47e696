// Package scenario implements the query kernels that answer common
// questions without a full sort, in the same charged-pass accounting as
// internal/core: top-K/quantile selection (one filtering pass at sampled
// thresholds), external group-by aggregation (one hashed pass when the
// groups fit in memory, a hash-partition round trip otherwise), and
// sorted-merge ingest (a two-lane StreamMerge pass folding a sorted batch
// into a sorted dataset).
//
// Every kernel streams its charged I/O through internal/stream, so the
// oblivious-accounting guarantee carries over: outputs, pass counts,
// pdm.Stats, and I/O traces are bit-identical across worker counts and
// disk backends — only the wall clock changes.  The
// matching closed-form step predictions live in internal/plan
// (TopKPlan/QuantilePlan/GroupByPlan/IngestPlan), and so does the
// selection sample: plan.SelectionDraw sizes the draw and picks the
// window's edges so that, on distinct keys, the filter pass misses —
// keeps fewer than the answer needs, or more than its SelectCap budget —
// with probability at most M^−α, and a plan's steps are the steps a run
// charges.  Filter and FilterKept report a miss past the budget as
// ErrOverflow; the caller detects the others and falls back.
package scenario
