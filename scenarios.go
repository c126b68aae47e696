package repro

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// This file is the facade for the query scenarios: answering top-K,
// quantile, group-by, and sorted-merge-ingest questions on the machine
// without (necessarily) running a full sort.  Each entry point prices the
// scenario route against the full sort with the planner's closed-form
// step predictions (ExplainScenario exposes the table) and runs whichever
// Auto deems cheaper.  Like Sort, the charged passes are oblivious: only
// the disk-resident streaming passes touch the I/O accounting, while
// client-side metadata work (sampling, partition-size counting, input
// validation) is uncharged, exactly like Load/Unload.

// The scenario vocabulary is declared once, beside the kinds table in
// internal/plan (and the aggregate beside its kernel), and re-exported here.
type (
	// ScenarioSpec describes a prospective scenario run for planning: the
	// kind, the dataset size N, and the kind's parameters (K, Rank, Groups
	// and PairWords, Batch).
	ScenarioSpec = plan.ScenarioQuery
	// ScenarioPlanReport is the planner's answer for one scenario: the
	// predicted steps and passes of the scenario route, the full-sort
	// alternative it competes with, and the Auto decision between them.
	// When Exact is true a non-fallback run charges exactly
	// ReadSteps/WriteSteps.
	ScenarioPlanReport = plan.ScenarioPlan
	// GroupAgg is one group's aggregate from Machine.GroupBy: Count
	// records carried Key, and Sum/Min/Max summarize their payloads (the
	// key itself when the input has no payload column).
	GroupAgg = scenario.Agg
)

// ScenarioResult is a scenario run's answer: what Machine.RunScenario
// returns and Scheduler.ScenarioResult serves for a completed job.
type ScenarioResult struct {
	// Kind is the scenario that ran.
	Kind string `json:"kind"`
	// Keys is the top-K result in ascending order, or (for specs with
	// KeepKeys) the merged ingest output.
	Keys []int64 `json:"keys,omitempty"`
	// Value is the selected quantile key.
	Value *int64 `json:"value,omitempty"`
	// Groups is the group-by aggregation, sorted by key.
	Groups []GroupAgg `json:"groups,omitempty"`
}

// RunScenario answers spec's query scenario over keys, the materialized
// dataset (spec.Keys, or its generated workload): the one dispatch from a
// scenario kind to its entry point, shared by the scheduler and pdmsort.
// Top-K, quantile, and group-by results are always returned (they are
// bounded by the scenario budget, not the input size); the merged ingest
// output only under spec.KeepKeys, like a sort's.
func (m *Machine) RunScenario(spec *JobSpec, keys []int64) (*ScenarioResult, *Report, error) {
	res := &ScenarioResult{Kind: spec.Scenario}
	var rep *Report
	var err error
	switch spec.Scenario {
	case plan.KindTopK:
		res.Keys, rep, err = m.TopK(keys, spec.TopK)
	case plan.KindQuantile:
		var v int64
		v, rep, err = m.Quantile(keys, spec.Rank)
		res.Value = &v
	case plan.KindGroupBy:
		res.Groups, rep, err = m.GroupBy(keys, spec.GroupPayloads, spec.Groups)
	case plan.KindIngest:
		var merged []int64
		merged, rep, err = m.Ingest(keys, spec.IngestBatch)
		if spec.KeepKeys {
			res.Keys = merged
		}
	default:
		err = fmt.Errorf("repro: unknown scenario %q", spec.Scenario)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// scenarioShape is the planner shape scenario pricing uses: the pure
// geometry, like Plan (deterministic — no calibration probes).
func (m *Machine) scenarioShape() plan.Shape {
	return planShape(m.a.Mem(), m.a.D(), planAlpha)
}

// ExplainScenario prices spec's scenario route against the full sort.
func (m *Machine) ExplainScenario(spec ScenarioSpec) (*ScenarioPlanReport, error) {
	p, err := plan.Scenario(m.scenarioShape(), spec)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &p, nil
}

// checkKeys rejects the padding sentinel, like Sort.
func checkKeys(keys []int64) error {
	for _, k := range keys {
		if k == math.MaxInt64 {
			return ErrKeyRange
		}
	}
	return nil
}

// splitmix64 is the fixed-seed PRNG behind the deterministic client-side
// sample (the same generator the workload harness uses).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampleKeys draws the planner's SelectSample(n) keys with a fixed
// splitmix64 stream and returns them sorted.  The draw depends only on n,
// so a scenario run is reproducible for a given input.
func sampleKeys(keys []int64) []int64 {
	n := len(keys)
	s := plan.SelectSample(n)
	out := make([]int64, s)
	if s >= n {
		copy(out, keys)
	} else {
		x := uint64(n)
		for i := range out {
			x = splitmix64(x)
			out[i] = keys[x%uint64(n)]
		}
	}
	slices.Sort(out)
	return out
}

// thresholdAt returns the sampled key whose estimated rank in the
// n-key input is target (1-indexed).
func thresholdAt(sample []int64, n, target int) int64 {
	s := len(sample)
	if s >= n {
		if target < 1 {
			target = 1
		}
		if target > s {
			target = s
		}
		return sample[target-1]
	}
	idx := int(int64(target) * int64(s) / int64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= s {
		idx = s - 1
	}
	return sample[idx]
}

// scenarioReport assembles a Report from the I/O delta of a scenario run
// that took route, with passes over the scenario plan's padded length.
func (m *Machine) scenarioReport(kind, route string, n, paddedN int, io pdm.Stats) *Report {
	stripe := m.a.StripeWidth()
	rep := &Report{
		Algorithm:     Auto,
		N:             n,
		Passes:        io.Passes(paddedN, stripe),
		ReadPasses:    io.ReadPasses(paddedN, stripe),
		WritePasses:   io.WritePasses(paddedN, stripe),
		IO:            io,
		PaddedN:       paddedN,
		Scenario:      kind,
		ScenarioRoute: route,
	}
	rep.Observe(io, m.a.Workers())
	return rep
}

// loadPadded loads data onto a fresh stripe padded to pad keys with
// sentinel (uncharged input staging, for Sort and the scenarios alike).
// data is only read, and not copied: see pdm.Stripe.LoadPadded.
func (m *Machine) loadPadded(data []int64, pad int, sentinel int64) (*pdm.Stripe, error) {
	s, err := m.a.NewStripe(pad)
	if err != nil {
		return nil, err
	}
	if err := s.LoadPadded(data, sentinel); err != nil {
		s.Free()
		return nil, err
	}
	return s, nil
}

// selectPlan is the shared front of the selection kinds (top-K, quantile):
// reject the sentinel, check the target against the input size with the
// scenario table's rule, and price the filter route against the full sort.
func (m *Machine) selectPlan(keys []int64, q ScenarioSpec) (*ScenarioPlanReport, error) {
	if err := checkKeys(keys); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return m.ExplainScenario(q)
}

// filterPass is the selection kinds' one charged pass: keys staged on a
// stripe padded to the plan's length, streamed once through
// scenario.Filter at the sampled window.  A survivor overflow past the
// plan's budget is a detected sampling miss, reported as a nil result.
func (m *Machine) filterPass(keys []int64, p *ScenarioPlanReport, lo, hi int64, hasLo bool) (*scenario.FilterResult, error) {
	in, err := m.loadPadded(keys, p.PaddedN, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	fr, err := scenario.Filter(m.a, in, lo, hi, hasLo, p.Budget)
	in.Free()
	if errors.Is(err, scenario.ErrOverflow) {
		return nil, nil
	}
	return fr, err
}

// sortRoute is every scenario's full-sort route: keys — the caller's
// private copy, with payloads riding along as one-word records when
// non-nil — sorted in place with the planner's algorithm, the report
// labelled.  fellBack marks a run that tried its scenario route first.
func (m *Machine) sortRoute(kind string, fellBack bool, keys, payloads []int64) (rep *Report, err error) {
	if payloads != nil {
		rep, err = m.sortWordRecords(keys, payloads, Auto)
	} else {
		rep, err = m.Sort(keys, Auto)
	}
	if err != nil {
		return nil, err
	}
	rep.Scenario, rep.ScenarioRoute = kind, plan.RouteFullSort
	rep.FellBack = rep.FellBack || fellBack
	return rep, nil
}

// TopK returns the k smallest keys in ascending order.  When the planner
// prices the filter route cheaper than the full sort (ExplainScenario
// shows the comparison), one charged filtering pass at a sampled
// threshold collects the survivors, they are sorted in memory, and the k
// results are written out — otherwise, or when the sampled threshold
// misses (Report.FellBack), the keys are sorted outright.  The input
// slice is never modified.
func (m *Machine) TopK(keys []int64, k int) ([]int64, *Report, error) {
	n := len(keys)
	p, err := m.selectPlan(keys, ScenarioSpec{Kind: plan.KindTopK, N: n, K: k})
	if err != nil {
		return nil, nil, err
	}
	filtered := p.Feasible && p.UseScenario
	if filtered {
		threshold := thresholdAt(sampleKeys(keys), n, k+plan.SelectDelta(n, k))
		st0 := m.a.Stats()
		fr, err := m.filterPass(keys, p, 0, threshold, false)
		if err != nil {
			return nil, nil, err
		}
		// Fewer than k survivors means the sampled threshold cut too deep:
		// detected, like the overflow, and sorted outright below.
		if fr != nil && len(fr.Kept) >= k {
			m.a.Pool().SortKeys(fr.Kept)
			top := slices.Clone(fr.Kept[:k])
			if err := m.writeResult(top); err != nil {
				return nil, nil, err
			}
			return top, m.scenarioReport(p.Kind, p.Route, n, p.PaddedN, m.a.Stats().Sub(st0)), nil
		}
	}
	sorted := slices.Clone(keys)
	rep, err := m.sortRoute(p.Kind, filtered, sorted, nil)
	if err != nil {
		return nil, nil, err
	}
	return sorted[:k:k], rep, nil
}

// writeResult streams a scenario's result keys to a fresh output stripe
// (padded to whole blocks), the charged write the plans price, and frees
// it — the facade returns the data, the write pays for materializing it.
func (m *Machine) writeResult(out []int64) error {
	b := m.a.B()
	pad := (len(out) + b - 1) / b * b
	if pad == 0 {
		return nil
	}
	flat, err := m.a.Arena().Alloc(pad)
	if err != nil {
		return err
	}
	defer m.a.Arena().Free(flat)
	copy(flat, out)
	for i := len(out); i < pad; i++ {
		flat[i] = math.MaxInt64
	}
	s, err := m.a.NewStripe(pad)
	if err != nil {
		return err
	}
	defer s.Free()
	return s.WriteAt(0, flat)
}

// Quantile returns the key of 1-indexed rank r (r = 1 is the minimum,
// r = n the maximum).  The filter route keeps one charged pass's worth of
// keys around the sampled rank window and reads the answer out of the
// sorted window; a window miss (Report.FellBack) or an unfavorable plan
// sorts outright.  The input slice is never modified.
func (m *Machine) Quantile(keys []int64, r int) (int64, *Report, error) {
	n := len(keys)
	p, err := m.selectPlan(keys, ScenarioSpec{Kind: plan.KindQuantile, N: n, Rank: r})
	if err != nil {
		return 0, nil, err
	}
	filtered := p.Feasible && p.UseScenario
	if filtered {
		sample := sampleKeys(keys)
		delta := plan.SelectDelta(n, r)
		hasLo := r-delta > 1
		var lo int64
		if hasLo {
			lo = thresholdAt(sample, n, r-delta)
		}
		st0 := m.a.Stats()
		fr, err := m.filterPass(keys, p, lo, thresholdAt(sample, n, r+delta), hasLo)
		if err != nil {
			return 0, nil, err
		}
		// A window that missed the target rank is detected, like the
		// overflow, and sorted outright below.
		if fr != nil {
			if idx := r - 1 - fr.Below; idx >= 0 && idx < len(fr.Kept) {
				m.a.Pool().SortKeys(fr.Kept)
				return fr.Kept[idx], m.scenarioReport(p.Kind, p.Route, n, p.PaddedN, m.a.Stats().Sub(st0)), nil
			}
		}
	}
	sorted := slices.Clone(keys)
	rep, err := m.sortRoute(p.Kind, filtered, sorted, nil)
	if err != nil {
		return 0, nil, err
	}
	return sorted[r-1], rep, nil
}

// GroupBy aggregates records by key: count, sum, min, and max of the
// payloads (of the keys themselves when payloads is nil), returned sorted
// by key.  payloads, when non-nil, must pair with keys element-wise.
// groups hints the distinct key count for route planning (≤ 0 = unknown):
// when the groups fit one memory load of accumulators the input is
// aggregated in a single charged pass, otherwise it takes a hash-partition
// round trip.  A hint too low is detected and re-routed (Report.FellBack).
// The input slices are never modified.
func (m *Machine) GroupBy(keys, payloads []int64, groups int) ([]GroupAgg, *Report, error) {
	n := len(keys)
	if err := checkKeys(keys); err != nil {
		return nil, nil, err
	}
	pairWords := 1
	if payloads != nil {
		if len(payloads) != n {
			return nil, nil, fmt.Errorf("repro: GroupBy got %d payloads for %d keys", len(payloads), n)
		}
		pairWords = 2
	}
	p := plan.GroupByPlan(m.scenarioShape(), n, groups, pairWords)
	if !p.Feasible {
		return nil, nil, fmt.Errorf("repro: group-by infeasible: %s", p.Reason)
	}
	hashed := p.Route != plan.RouteFullSort
	if hashed {
		aggs, rep, err := m.groupByHash(keys, payloads, pairWords, p)
		if err != nil || rep != nil {
			return aggs, rep, err
		}
	}
	return m.groupBySort(keys, payloads, hashed)
}

// groupByHash runs GroupBy's hash routes: the one-pass table, escalating
// to the partition round trip when the hint undercounted the groups.  A
// partition that still holds too many distinct keys leaves only the
// sort-then-scan route: reported as a nil Report.
func (m *Machine) groupByHash(keys, payloads []int64, pairWords int, p plan.ScenarioPlan) ([]GroupAgg, *Report, error) {
	n := len(keys)
	pairs := make([]int64, 0, n*pairWords)
	for i, k := range keys {
		pairs = append(pairs, k)
		if pairWords == 2 {
			pairs = append(pairs, payloads[i])
		}
	}
	cap := plan.GroupCap(m.a.Mem())

	st0 := m.a.Stats()
	in, err := m.loadPadded(pairs, p.PaddedN, math.MaxInt64)
	if err != nil {
		return nil, nil, err
	}
	defer in.Free()

	route, fellBack := p.Route, false
	var aggs []GroupAgg
	if route == plan.RouteOnePass {
		aggs, err = scenario.GroupOnePass(m.a, in, pairWords, cap)
		if errors.Is(err, scenario.ErrOverflow) {
			// The hint undercounted the groups: escalate to the partition
			// strategy at the worst-case fanout.
			route, fellBack, err = plan.RoutePartition, true, nil
		} else if err != nil {
			return nil, nil, err
		}
	}
	if route == plan.RoutePartition {
		parts := plan.PartitionFanout(n, m.scenarioShape())
		sizes := make([]int, parts)
		for _, k := range keys {
			sizes[scenario.PartitionIndex(k, parts)]++
		}
		aggs, err = scenario.GroupPartition(m.a, in, pairWords, sizes, cap)
		if errors.Is(err, scenario.ErrOverflow) {
			return nil, nil, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("repro: partitioned group-by: %w", err)
		}
	}
	rep := m.scenarioReport(p.Kind, route, n, p.PaddedN, m.a.Stats().Sub(st0))
	rep.FellBack = fellBack
	rep.PayloadWords = (pairWords - 1) * n
	return aggs, rep, nil
}

// groupBySort is GroupBy's sort-then-scan route: a record sort carries
// the payload column with the keys, and the aggregation scans the sorted
// output run by run (no group-count limit — equal keys are adjacent, so
// one accumulator suffices).
func (m *Machine) groupBySort(keys, payloads []int64, fellBack bool) ([]GroupAgg, *Report, error) {
	kc := slices.Clone(keys)
	var pc []int64 // stays nil without a payload column: the keys are the values
	vals := kc
	if payloads != nil {
		pc = slices.Clone(payloads)
		vals = pc
	}
	rep, err := m.sortRoute(plan.KindGroupBy, fellBack, kc, pc)
	if err != nil {
		return nil, nil, err
	}
	var out []GroupAgg
	for i, k := range kc {
		v := vals[i]
		if len(out) == 0 || out[len(out)-1].Key != k {
			out = append(out, GroupAgg{Key: k, Min: v, Max: v})
		}
		a := &out[len(out)-1]
		a.Count++
		a.Sum += v
		a.Min = min(a.Min, v)
		a.Max = max(a.Max, v)
	}
	return out, rep, nil
}

// Ingest folds a batch of new keys into an already-sorted dataset,
// returning the combined sorted keys.  The merge route sorts only the
// batch (with the planner-chosen algorithm) and folds it in with a single
// two-lane StreamMerge pass — the LSM-style alternative to re-sorting
// everything, which Auto falls back to when the plan prices it cheaper.
// dataset must be ascending; neither input slice is modified.
func (m *Machine) Ingest(dataset, batch []int64) ([]int64, *Report, error) {
	if err := checkKeys(dataset); err != nil {
		return nil, nil, err
	}
	if err := checkKeys(batch); err != nil {
		return nil, nil, err
	}
	if !slices.IsSorted(dataset) {
		return nil, nil, fmt.Errorf("repro: Ingest dataset is not sorted")
	}
	if len(batch) == 0 {
		rep := m.scenarioReport(plan.KindIngest, plan.RouteMerge, len(dataset), 0, pdm.Stats{})
		return slices.Clone(dataset), rep, nil
	}
	n := len(dataset)
	p := plan.IngestPlan(m.scenarioShape(), plan.Workload{N: n}, len(batch))
	if !p.Feasible || !p.UseScenario {
		all := slices.Concat(dataset, batch)
		rep, err := m.sortRoute(p.Kind, false, all, nil)
		if err != nil {
			return nil, nil, err
		}
		return all, rep, nil
	}

	st0 := m.a.Stats()
	sortedBatch := slices.Clone(batch)
	brep, err := m.Sort(sortedBatch, Auto)
	if err != nil {
		return nil, nil, err
	}
	stripe := m.a.StripeWidth()
	x, err := m.loadPadded(dataset, padStripeUp(n, stripe), math.MaxInt64)
	if err != nil {
		return nil, nil, err
	}
	defer x.Free()
	y, err := m.loadPadded(sortedBatch, padStripeUp(len(batch), stripe), math.MaxInt64)
	if err != nil {
		return nil, nil, err
	}
	defer y.Free()
	merged, err := scenario.Merge(m.a, x, y)
	if err != nil {
		return nil, nil, err
	}
	defer merged.Free()
	flat, err := merged.Unload()
	if err != nil {
		return nil, nil, err
	}
	out := flat[:n+len(batch)]
	rep := m.scenarioReport(p.Kind, p.Route, n+len(batch), p.PaddedN, m.a.Stats().Sub(st0))
	rep.Algorithm = brep.Algorithm
	rep.FellBack = brep.FellBack
	return out, rep, nil
}

// padStripeUp pads n up to a whole number of stripes (≥ 1).
func padStripeUp(n, stripe int) int {
	pad := (n + stripe - 1) / stripe * stripe
	if pad == 0 {
		pad = stripe
	}
	return pad
}
