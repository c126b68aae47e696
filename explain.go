package repro

import (
	"fmt"
	"time"

	"repro/internal/pdm"
	"repro/internal/plan"
)

// The planner's vocabulary is declared once, in internal/plan, and
// re-exported here under its public names.
type (
	// SortSpec describes a prospective sort for planning: the workload
	// shape the cost model needs (N, PayloadBytes or PayloadWords, Universe,
	// Presorted), without the data.
	SortSpec = plan.Workload
	// PlanCandidate is one row of the plan table.
	PlanCandidate = plan.Candidate
	// PlanCalibration reports the measured rates a PlanReport priced with.
	PlanCalibration = plan.Calibration
	// PlanReport is Explain's answer: every candidate algorithm in the
	// order Auto chooses (feasible first), the calibration its seconds
	// columns are priced with, and the algorithm the stack will run.
	PlanReport = plan.Report
)

// explainOn prices spec on a machine of the given resolved configuration:
// the planner's machine shape and its (cached) micro-calibration — a
// one-shot probe on a throwaway array of the same geometry and backend
// kind, shared process-wide per shape.  It is the single assembly point:
// Machine.Explain, Scheduler.Explain, and the per-job prediction all build
// here, so the shape fields and the calibration cache key can never drift
// apart.
func explainOn(pcfg pdm.Config, workers int, latency time.Duration, backend pdm.Backend,
	spec SortSpec) (*PlanReport, error) {
	shape := planShape(pcfg.Mem, pcfg.D, planAlpha)
	shape.Workers = workers
	shape.BlockLatency = latency
	shape.Backend = backend
	shape.Prefetch = pcfg.Pipeline.Prefetch
	shape.WriteBehind = pcfg.Pipeline.WriteBehind
	return plan.Explain(shape, spec, plan.Calibrate(plan.ProbeConfig{
		D: pcfg.D, B: pcfg.B, Workers: workers,
		BlockLatency: latency,
		Backend:      backend,
	}))
}

// Explain answers "what would this machine run, and why": it evaluates
// every candidate algorithm for the spec — predicted passes, the padded
// length each geometry forces, I/O words, permutation levels for record
// sorts, and calibrated wall time — and returns the rows in the order
// Auto chooses, with Chosen naming the algorithm Sort(keys, Auto) (or
// SortInts, for universe specs) will run.
func (m *Machine) Explain(spec SortSpec) (*PlanReport, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("repro: SortSpec.N = %d, want > 0", spec.N)
	}
	return explainOn(m.a.Config(), m.a.Workers(), m.cfg.BlockLatency, m.backend, spec)
}
