package repro

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
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
	// PlanCandidate is one row of the ranked plan table.
	PlanCandidate = plan.Candidate
	// PlanCalibration reports the measured rates a PlanReport priced with.
	PlanCalibration = plan.Calibration
)

// BackendPlan is one row of Explain's backend ranking: the calibrated
// per-step cost of this machine's geometry on one available disk backend.
// File-backed machines rank both file backends (probing each once,
// cached); in-memory machines have the single "mem" row.
type BackendPlan struct {
	Backend          string  `json:"backend"`
	ReadStepSeconds  float64 `json:"readStepSeconds"`
	WriteStepSeconds float64 `json:"writeStepSeconds"`
	Probed           bool    `json:"probed"`
	// Chosen marks the backend this machine actually runs (the ranking is
	// advisory — switching backends never changes results, only seconds).
	Chosen bool `json:"chosen,omitempty"`
}

// PlanReport is Machine.Explain's answer: every candidate algorithm
// ranked by predicted wall time (feasible first), the calibration used,
// and the choice the stack will run.
type PlanReport struct {
	Spec SortSpec `json:"spec"`
	// Chosen is the short name of the algorithm the stack will run: the
	// Auto path's deterministic choice (or the forced algorithm / radix).
	// The table order is the calibrated ranking, which may place a
	// marginally cheaper candidate above Chosen on latency-heavy shapes.
	Chosen string `json:"chosen"`
	// ChosenAlgorithm is Chosen as an Algorithm value; ChosenRadix marks
	// the Section 7 RadixSort, whose entry point is SortInts, not Sort.
	ChosenAlgorithm Algorithm `json:"-"`
	ChosenRadix     bool      `json:"chosenRadix,omitempty"`

	Candidates  []PlanCandidate `json:"candidates"`
	Calibration PlanCalibration `json:"calibration"`
	// Backends ranks the disk backends available for this machine's
	// geometry, cheapest measured step cost first.
	Backends []BackendPlan `json:"backends,omitempty"`
}

// Candidate returns the row for the short algorithm name, nil when absent.
func (r *PlanReport) Candidate(name string) *PlanCandidate {
	for i := range r.Candidates {
		if string(r.Candidates[i].Algorithm) == name {
			return &r.Candidates[i]
		}
	}
	return nil
}

// explainOn prices spec on a machine of the given resolved configuration:
// the planner's machine shape and its (cached) micro-calibration — a
// one-shot probe on a throwaway array of the same geometry and backend
// kind, shared process-wide per shape.  It is the single assembly point:
// Machine.Explain, Scheduler.Explain, and the per-job prediction all build
// here, so the shape fields and the calibration cache key can never drift
// apart.  The report carries the candidate table only; the callers that
// print or serve it attach the advisory backend ranking with
// rankBackends(probe).
func explainOn(pcfg pdm.Config, workers int, latency time.Duration, backend pdm.Backend,
	spec SortSpec) (*PlanReport, plan.ProbeConfig, error) {
	probe := plan.ProbeConfig{
		D: pcfg.D, B: pcfg.B, Workers: workers,
		BlockLatency: latency,
		Backend:      backend,
	}
	shape := planShape(pcfg.Mem, pcfg.D, planAlpha)
	shape.Workers = workers
	shape.BlockLatency = latency
	shape.Backend = backend
	shape.Prefetch = pcfg.Pipeline.Prefetch
	shape.WriteBehind = pcfg.Pipeline.WriteBehind
	r, err := plan.Explain(shape, spec, plan.Calibrate(probe))
	if err != nil {
		return nil, probe, err
	}
	out := &PlanReport{Spec: spec, Candidates: r.Candidates, Calibration: r.Cal}
	out.setChosen(r.Chosen)
	return out, probe, nil
}

// rankBackends builds the backend ranking for the probed machine: every
// backend kind available for its storage mode is calibrated (one cached
// micro-probe per kind) and sorted by measured round-trip step cost,
// cheapest first.
func rankBackends(probe plan.ProbeConfig) []BackendPlan {
	kinds := []pdm.Backend{pdm.BackendMem}
	if probe.Backend != pdm.BackendMem {
		kinds = []pdm.Backend{pdm.BackendFile, pdm.BackendMmap}
	}
	rows := make([]BackendPlan, 0, len(kinds))
	for _, k := range kinds {
		pc := probe
		pc.Backend = k
		cal := plan.Calibrate(pc)
		rows = append(rows, BackendPlan{
			Backend:          string(k),
			ReadStepSeconds:  cal.ReadStepSeconds,
			WriteStepSeconds: cal.WriteStepSeconds,
			Probed:           cal.Probed,
			Chosen:           k == probe.Backend,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].ReadStepSeconds+rows[i].WriteStepSeconds <
			rows[j].ReadStepSeconds+rows[j].WriteStepSeconds
	})
	return rows
}

// Explain answers "what would this machine run, and why": it evaluates
// every candidate algorithm for the spec — predicted passes, the padded
// length each geometry forces, I/O words, permutation levels for record
// sorts, and calibrated wall time — and returns the table ranked by
// predicted seconds, with Chosen naming the algorithm Auto (or SortInts,
// for universe specs) will actually run.  Chosen is Auto's deterministic
// fixed-calibration choice; on latency-heavy shapes the calibrated
// ranking can prefer a different candidate at the margin, in which case
// the table's first row is that cheaper candidate and callers wanting it
// select it explicitly.
func (m *Machine) Explain(spec SortSpec) (*PlanReport, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("repro: SortSpec.N = %d, want > 0", spec.N)
	}
	out, probe, err := m.explain(spec)
	if err != nil {
		return nil, err
	}
	out.Backends = rankBackends(probe)
	if spec.Universe == 0 {
		// Pin the choice to the Auto path: what Sort(keys, Auto) on this
		// machine will actually run, whatever the calibrated ranking says.
		out.setChosen(m.Plan(spec.N))
	}
	return out, nil
}

// explain is explainOn on this machine's resolved configuration: the
// candidate table without the ranking, which is all a scheduler job's
// recorded prediction reads.
func (m *Machine) explain(spec SortSpec) (*PlanReport, plan.ProbeConfig, error) {
	return explainOn(m.a.Config(), m.a.Workers(), m.cfg.BlockLatency, m.backend, spec)
}

// setChosen points the report's choice at alg (the Auto path's pick, a
// forced algorithm, or Radix for universe specs).
func (r *PlanReport) setChosen(alg Algorithm) {
	r.Chosen = string(alg)
	r.ChosenAlgorithm = alg
	r.ChosenRadix = alg == core.AlgRadix
}
