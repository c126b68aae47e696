package repro

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

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

// ScenarioSpec describes a prospective scenario run for planning.
type ScenarioSpec struct {
	// Kind selects the scenario: "topk", "quantile", "groupby", "ingest".
	Kind string `json:"kind"`
	// N is the dataset size in keys (records for groupby).
	N int `json:"n"`
	// K is the top-K count (topk only).
	K int `json:"k,omitempty"`
	// Rank is the 1-indexed target rank (quantile only).
	Rank int `json:"rank,omitempty"`
	// Groups hints the distinct group count (groupby only); ≤ 0 means
	// unknown, which plans for the worst case of N distinct groups.
	Groups int `json:"groups,omitempty"`
	// PairWords is the group-by record width: 1 for bare keys, 2 for
	// key+payload pairs.  Zero means 1.
	PairWords int `json:"pairWords,omitempty"`
	// Batch is the new-batch size (ingest only).
	Batch int `json:"batch,omitempty"`
}

// ScenarioPlanReport is the planner's answer for one scenario: the
// predicted steps and passes of the scenario route, the full-sort
// alternative it competes with, and the Auto decision between them.  When
// Exact is true a non-fallback run charges exactly ReadSteps/WriteSteps.
type ScenarioPlanReport struct {
	Kind     string `json:"kind"`
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`

	PaddedN     int     `json:"paddedN,omitempty"`
	ReadSteps   int64   `json:"readSteps,omitempty"`
	WriteSteps  int64   `json:"writeSteps,omitempty"`
	ReadPasses  float64 `json:"readPasses,omitempty"`
	WritePasses float64 `json:"writePasses,omitempty"`
	Exact       bool    `json:"exact,omitempty"`

	Sample int    `json:"sample,omitempty"`
	Budget int    `json:"budget,omitempty"`
	Route  string `json:"route"`

	FullSortAlgorithm  string  `json:"fullSortAlgorithm,omitempty"`
	FullSortReadPasses float64 `json:"fullSortReadPasses,omitempty"`
	UseScenario        bool    `json:"useScenario"`
}

// GroupAgg is one group's aggregate from Machine.GroupBy: Count records
// carried Key, and Sum/Min/Max summarize their payloads (the key itself
// when the input has no payload column).
type GroupAgg struct {
	Key   int64 `json:"key"`
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// scenarioShape is the planner shape scenario pricing uses: the pure
// geometry, like Plan (deterministic — no calibration probes).
func (m *Machine) scenarioShape() plan.Shape {
	return planShape(m.a.Mem(), m.a.D(), m.alpha)
}

// ExplainScenario prices spec's scenario route against the full sort.
func (m *Machine) ExplainScenario(spec ScenarioSpec) (*ScenarioPlanReport, error) {
	p, err := scenarioPlanFor(m.scenarioShape(), spec)
	if err != nil {
		return nil, err
	}
	return convertScenarioPlan(p), nil
}

// scenarioPlanFor is ExplainScenario as a pure function of the geometry,
// shared with the scheduler's submit-time planning.
func scenarioPlanFor(shape plan.Shape, spec ScenarioSpec) (plan.ScenarioPlan, error) {
	if spec.N <= 0 {
		return plan.ScenarioPlan{}, fmt.Errorf("repro: ScenarioSpec.N = %d, want > 0", spec.N)
	}
	w := plan.Workload{N: spec.N}
	switch spec.Kind {
	case "topk":
		return plan.TopKPlan(shape, w, spec.K), nil
	case "quantile":
		return plan.QuantilePlan(shape, w, spec.Rank), nil
	case "groupby":
		pw := spec.PairWords
		if pw == 0 {
			pw = 1
		}
		return plan.GroupByPlan(shape, spec.N, spec.Groups, pw), nil
	case "ingest":
		return plan.IngestPlan(shape, w, spec.Batch), nil
	}
	return plan.ScenarioPlan{}, fmt.Errorf("repro: unknown scenario kind %q (want topk|quantile|groupby|ingest)", spec.Kind)
}

// convertScenarioPlan maps the internal plan onto the facade type.
func convertScenarioPlan(p plan.ScenarioPlan) *ScenarioPlanReport {
	return &ScenarioPlanReport{
		Kind: p.Kind, Feasible: p.Feasible, Reason: p.Reason,
		PaddedN: p.PaddedN, ReadSteps: p.ReadSteps, WriteSteps: p.WriteSteps,
		ReadPasses: p.ReadPasses, WritePasses: p.WritePasses, Exact: p.Exact,
		Sample: p.Sample, Budget: p.Budget, Route: p.Route,
		FullSortAlgorithm: string(p.FullSortAlg), FullSortReadPasses: p.FullSortReadPasses,
		UseScenario: p.UseScenario,
	}
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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

// scenarioReport assembles a Report from the I/O delta of a scenario run,
// with passes over the scenario plan's padded length.
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

// TopK returns the k smallest keys in ascending order.  When the planner
// prices the filter route cheaper than the full sort (ExplainScenario
// shows the comparison), one charged filtering pass at a sampled
// threshold collects the survivors, they are sorted in memory, and the k
// results are written out — otherwise, or when the sampled threshold
// misses (Report.FellBack), the keys are sorted outright.  The input
// slice is never modified.
func (m *Machine) TopK(keys []int64, k int) ([]int64, *Report, error) {
	n := len(keys)
	if err := checkKeys(keys); err != nil {
		return nil, nil, err
	}
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("repro: TopK k = %d outside [1, %d]", k, n)
	}
	p := plan.TopKPlan(m.scenarioShape(), plan.Workload{N: n}, k)
	if !p.Feasible || !p.UseScenario {
		return m.topKBySort(keys, k, false)
	}
	threshold := thresholdAt(sampleKeys(keys), n, k+plan.SelectDelta(n, k))

	st0 := m.a.Stats()
	in, err := m.loadPadded(keys, p.PaddedN, math.MaxInt64)
	if err != nil {
		return nil, nil, err
	}
	fr, err := scenario.Filter(m.a, in, 0, threshold, false, p.Budget)
	in.Free()
	if errors.Is(err, scenario.ErrOverflow) {
		return m.topKBySort(keys, k, true)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(fr.Kept) < k {
		// The sampled threshold cut too deep: detected, fall back.
		return m.topKBySort(keys, k, true)
	}
	m.a.Pool().SortKeys(fr.Kept)
	top := append([]int64(nil), fr.Kept[:k]...)
	if err := m.writeResult(top); err != nil {
		return nil, nil, err
	}
	rep := m.scenarioReport("topk", "filter", n, p.PaddedN, m.a.Stats().Sub(st0))
	return top, rep, nil
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

// topKBySort is TopK's full-sort route.
func (m *Machine) topKBySort(keys []int64, k int, fellBack bool) ([]int64, *Report, error) {
	cp := append([]int64(nil), keys...)
	rep, err := m.Sort(cp, Auto)
	if err != nil {
		return nil, nil, err
	}
	rep.Scenario, rep.ScenarioRoute = "topk", "fullsort"
	rep.FellBack = rep.FellBack || fellBack
	return cp[:k:k], rep, nil
}

// Quantile returns the key of 1-indexed rank r (r = 1 is the minimum,
// r = n the maximum).  The filter route keeps one charged pass's worth of
// keys around the sampled rank window and reads the answer out of the
// sorted window; a window miss (Report.FellBack) or an unfavorable plan
// sorts outright.  The input slice is never modified.
func (m *Machine) Quantile(keys []int64, r int) (int64, *Report, error) {
	n := len(keys)
	if err := checkKeys(keys); err != nil {
		return 0, nil, err
	}
	if r < 1 || r > n {
		return 0, nil, fmt.Errorf("repro: Quantile rank = %d outside [1, %d]", r, n)
	}
	p := plan.QuantilePlan(m.scenarioShape(), plan.Workload{N: n}, r)
	if !p.Feasible || !p.UseScenario {
		return m.quantileBySort(keys, r, false)
	}
	sample := sampleKeys(keys)
	delta := plan.SelectDelta(n, r)
	hasLo := r-delta > 1
	var lo int64
	if hasLo {
		lo = thresholdAt(sample, n, r-delta)
	}
	hi := thresholdAt(sample, n, r+delta)

	st0 := m.a.Stats()
	in, err := m.loadPadded(keys, p.PaddedN, math.MaxInt64)
	if err != nil {
		return 0, nil, err
	}
	fr, err := scenario.Filter(m.a, in, lo, hi, hasLo, p.Budget)
	in.Free()
	if errors.Is(err, scenario.ErrOverflow) {
		return m.quantileBySort(keys, r, true)
	}
	if err != nil {
		return 0, nil, err
	}
	idx := r - 1 - fr.Below
	if idx < 0 || idx >= len(fr.Kept) {
		// The window missed the target rank: detected, fall back.
		return m.quantileBySort(keys, r, true)
	}
	m.a.Pool().SortKeys(fr.Kept)
	rep := m.scenarioReport("quantile", "filter", n, p.PaddedN, m.a.Stats().Sub(st0))
	return fr.Kept[idx], rep, nil
}

// quantileBySort is Quantile's full-sort route.
func (m *Machine) quantileBySort(keys []int64, r int, fellBack bool) (int64, *Report, error) {
	cp := append([]int64(nil), keys...)
	rep, err := m.Sort(cp, Auto)
	if err != nil {
		return 0, nil, err
	}
	rep.Scenario, rep.ScenarioRoute = "quantile", "fullsort"
	rep.FellBack = rep.FellBack || fellBack
	return cp[r-1], rep, nil
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
	shape := m.scenarioShape()
	p := plan.GroupByPlan(shape, n, groups, pairWords)
	if !p.Feasible {
		return nil, nil, fmt.Errorf("repro: group-by infeasible: %s", p.Reason)
	}
	route := p.Route
	if route == "fullsort" {
		return m.groupBySort(keys, payloads, pairWords, false)
	}
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

	fellBack := false
	var aggs []scenario.Agg
	if route == "onepass" {
		aggs, err = scenario.GroupOnePass(m.a, in, pairWords, cap)
		if errors.Is(err, scenario.ErrOverflow) {
			// The hint undercounted the groups: escalate to the partition
			// strategy at the worst-case fanout.
			route, fellBack, err = "partition", true, nil
		} else if err != nil {
			return nil, nil, err
		}
	}
	if route == "partition" {
		parts := plan.PartitionFanout(n, shape)
		sizes := make([]int, parts)
		for _, k := range keys {
			sizes[scenario.PartitionIndex(k, parts)]++
		}
		aggs, err = scenario.GroupPartition(m.a, in, pairWords, sizes, cap)
		if errors.Is(err, scenario.ErrOverflow) {
			// A partition still held too many distinct keys: the last
			// resort is the sort-then-scan route.
			return m.groupBySort(keys, payloads, pairWords, true)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("repro: partitioned group-by: %w", err)
		}
	}
	out := make([]GroupAgg, len(aggs))
	for i, a := range aggs {
		out[i] = GroupAgg(a)
	}
	rep := m.scenarioReport("groupby", route, n, p.PaddedN, m.a.Stats().Sub(st0))
	rep.FellBack = fellBack
	rep.PayloadWords = (pairWords - 1) * n
	return out, rep, nil
}

// groupBySort is GroupBy's sort-then-scan route: a record sort carries
// the payload column with the keys, and the aggregation scans the sorted
// output run by run (no group-count limit — equal keys are adjacent, so
// one accumulator suffices).
func (m *Machine) groupBySort(keys, payloads []int64, pairWords int, fellBack bool) ([]GroupAgg, *Report, error) {
	kc := append([]int64(nil), keys...)
	var rep *Report
	var err error
	pc := kc
	if pairWords == 2 {
		raw := make([]byte, 8*len(payloads))
		blobs := make([][]byte, len(payloads))
		for i, p := range payloads {
			b := raw[8*i : 8*i+8]
			binary.LittleEndian.PutUint64(b, uint64(p))
			blobs[i] = b
		}
		rep, err = m.SortRecords(kc, blobs, Auto)
		if err != nil {
			return nil, nil, err
		}
		pc = make([]int64, len(payloads))
		for i := range pc {
			pc[i] = int64(binary.LittleEndian.Uint64(blobs[i]))
		}
	} else {
		rep, err = m.Sort(kc, Auto)
		if err != nil {
			return nil, nil, err
		}
	}
	var out []GroupAgg
	for i := 0; i < len(kc); i++ {
		v := pc[i]
		if len(out) == 0 || out[len(out)-1].Key != kc[i] {
			out = append(out, GroupAgg{Key: kc[i], Min: v, Max: v})
		}
		a := &out[len(out)-1]
		a.Count++
		a.Sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	rep.Scenario, rep.ScenarioRoute = "groupby", "fullsort"
	rep.FellBack = rep.FellBack || fellBack
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
	if !sort.SliceIsSorted(dataset, func(i, j int) bool { return dataset[i] < dataset[j] }) {
		return nil, nil, fmt.Errorf("repro: Ingest dataset is not sorted")
	}
	if len(batch) == 0 {
		out := append([]int64(nil), dataset...)
		rep := m.scenarioReport("ingest", "merge", len(dataset), 0, pdm.Stats{})
		return out, rep, nil
	}
	n := len(dataset)
	p := plan.IngestPlan(m.scenarioShape(), plan.Workload{N: n}, len(batch))
	if !p.Feasible || !p.UseScenario {
		return m.ingestBySort(dataset, batch)
	}

	st0 := m.a.Stats()
	sortedBatch := append([]int64(nil), batch...)
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
	rep := m.scenarioReport("ingest", "merge", n+len(batch), p.PaddedN, m.a.Stats().Sub(st0))
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

// ingestBySort is Ingest's re-sort-everything route.
func (m *Machine) ingestBySort(dataset, batch []int64) ([]int64, *Report, error) {
	all := make([]int64, 0, len(dataset)+len(batch))
	all = append(all, dataset...)
	all = append(all, batch...)
	rep, err := m.Sort(all, Auto)
	if err != nil {
		return nil, nil, err
	}
	rep.Scenario, rep.ScenarioRoute = "ingest", "fullsort"
	return all, rep, nil
}
