package plan

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/memsort"
)

// This file prices the query scenarios that avoid a full sort: top-K /
// quantile selection (one filtering pass over a sampled threshold window),
// external group-by (hash aggregation, one pass when the groups fit in
// memory, a partition round trip otherwise), and sorted-merge ingest
// (sort the new batch, then one StreamMerge pass over old + new).  The
// runtime (internal/scenario and the repro facade) uses the exact same
// formulas, so a plan's ReadSteps/WriteSteps are the steps a run charges.

// The scenario kinds and the routes a scenario run can take: the one
// spelling every layer uses (JobSpec.Scenario, Report.Scenario and
// ScenarioRoute, the CLIs' subcommands).
const (
	KindTopK     = "topk"
	KindQuantile = "quantile"
	KindGroupBy  = "groupby"
	KindIngest   = "ingest"

	RouteFilter    = "filter"    // top-K / quantile: one sampled-threshold pass
	RouteOnePass   = "onepass"   // group-by: the groups fit one memory load
	RoutePartition = "partition" // group-by: a hash-partition round trip
	RouteMerge     = "merge"     // ingest: sort the batch, one merge pass
	RouteFullSort  = "fullsort"  // any kind degenerating to the full sort
)

// ScenarioQuery describes a prospective scenario run (repro.ScenarioSpec):
// the kind, the dataset size, and the kind's parameters.
type ScenarioQuery struct {
	// Kind selects the scenario: one of the Kind constants.
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

// ScenarioPlan is the planner's answer for one query scenario
// (repro.ScenarioPlanReport, the GET /plan/scenario body), in the same pass
// currency as Candidate: steps are parallel I/O steps, passes are
// steps·stripe/PaddedN.
type ScenarioPlan struct {
	Kind     string `json:"kind"`
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"` // why not, when infeasible

	// PaddedN is the scenario's accounting denominator: the padded words
	// the pass counts are relative to.
	PaddedN     int     `json:"paddedN,omitempty"`
	ReadSteps   int64   `json:"readSteps,omitempty"`
	WriteSteps  int64   `json:"writeSteps,omitempty"`
	ReadPasses  float64 `json:"readPasses,omitempty"`
	WritePasses float64 `json:"writePasses,omitempty"`

	// Exact reports that ReadSteps/WriteSteps are step-exact predictions
	// (a non-fallback run charges exactly these).  Group-by partition
	// routes are floors, not promises.
	Exact bool `json:"exact,omitempty"`

	// Sample and Budget expose the selection scenario's knobs: the client
	// sample size and the worst-case survivor budget the filter pass must
	// hold in memory.  Zero for groupby/ingest.
	Sample int `json:"sample,omitempty"`
	Budget int `json:"budget,omitempty"`

	// Route names the chosen strategy within the scenario: one of the
	// Route constants (RouteFullSort when the scenario degenerates to
	// sorting).
	Route string `json:"route"`

	// FullSortAlgorithm and FullSortReadPasses price the "just sort
	// everything" alternative the scenario is competing with (the chosen
	// candidate's prediction over the same keys).
	FullSortAlgorithm  Alg     `json:"fullSortAlgorithm,omitempty"`
	FullSortReadPasses float64 `json:"fullSortReadPasses,omitempty"`

	// UseScenario is the Auto decision: the scenario route costs strictly
	// fewer predicted read passes than the full sort.
	UseScenario bool `json:"useScenario"`
}

// scenarioKind is one row of the scenario table: everything the layers
// above need to know about a kind.  Adding a scenario is one row here plus
// its body in the facade's dispatch.
type scenarioKind struct {
	name string
	// check holds the kind's parameter rule against the dataset size, in
	// the words every door reports (prefixed by the caller's package).
	check func(q ScenarioQuery) error
	// price is the closed-form plan; an out-of-range parameter prices as
	// infeasible with check's words as the Reason.
	price func(shape Shape, q ScenarioQuery) ScenarioPlan
	// envelope is the scratch the scenario route needs, in keys.
	envelope func(shape Shape, q ScenarioQuery) int
}

var scenarioKinds = []scenarioKind{
	{KindTopK,
		func(q ScenarioQuery) error { return checkRank("topK", q.K, q.N) },
		func(s Shape, q ScenarioQuery) ScenarioPlan { return TopKPlan(s, Workload{N: q.N}, q.K) },
		selectEnvelope},
	{KindQuantile,
		func(q ScenarioQuery) error { return checkRank("rank", q.Rank, q.N) },
		func(s Shape, q ScenarioQuery) ScenarioPlan { return QuantilePlan(s, Workload{N: q.N}, q.Rank) },
		selectEnvelope},
	{KindGroupBy,
		func(q ScenarioQuery) error { return checkPairWords(q.pairWords()) },
		func(s Shape, q ScenarioQuery) ScenarioPlan { return GroupByPlan(s, q.N, q.Groups, q.pairWords()) },
		func(s Shape, q ScenarioQuery) int {
			// Pairs store + partition stripes at the worst-case fanout the
			// run scatters with, each rounded up to a whole stripe row.
			stripe := s.Stripe()
			return 2*padStripe(q.N*q.pairWords(), stripe) + (PartitionFanout(q.N, s)+2)*stripe
		}},
	{KindIngest,
		func(q ScenarioQuery) error {
			if q.Batch <= 0 {
				return errors.New("ingest needs a non-empty ingestBatch")
			}
			return nil
		},
		func(s Shape, q ScenarioQuery) ScenarioPlan { return IngestPlan(s, Workload{N: q.N}, q.Batch) },
		ingestEnvelope},
}

// row finds the query's table row.
func (q ScenarioQuery) row() (*scenarioKind, error) {
	for i := range scenarioKinds {
		if scenarioKinds[i].name == q.Kind {
			return &scenarioKinds[i], nil
		}
	}
	names := make([]string, len(scenarioKinds))
	for i, k := range scenarioKinds {
		names[i] = k.name
	}
	return nil, fmt.Errorf("unknown scenario %q (want %s)", q.Kind, strings.Join(names, "|"))
}

// pairWords applies the zero-means-1 default.
func (q ScenarioQuery) pairWords() int { return max(q.PairWords, 1) }

// Validate checks the kind and its parameters against the dataset size —
// the one statement of each kind's rule (JobSpec.Validate and the facade's
// entry points both run it).
func (q ScenarioQuery) Validate() error {
	k, err := q.row()
	if err != nil {
		return err
	}
	return k.check(q)
}

// Scenario prices q's scenario route against the full sort on shape.
func Scenario(shape Shape, q ScenarioQuery) (ScenarioPlan, error) {
	k, err := q.row()
	if err != nil {
		return ScenarioPlan{}, err
	}
	if q.N <= 0 {
		return ScenarioPlan{}, fmt.Errorf("scenario dataset size N = %d, want > 0", q.N)
	}
	return k.price(shape, q), nil
}

// ScenarioDiskEnvelope is the scratch-stripe budget q's scenario route
// needs, in keys (words): inputs, outputs, and the partition stripes of the
// group-by route, with one stripe of slack like DiskEnvelope.  Zero for an
// unknown kind.
func ScenarioDiskEnvelope(shape Shape, q ScenarioQuery) int {
	k, err := q.row()
	if err != nil {
		return 0
	}
	return k.envelope(shape, q)
}

// checkRank is the selection kinds' parameter rule: 1 ≤ v ≤ n.
func checkRank(name string, v, n int) error {
	if v < 1 || v > n {
		return fmt.Errorf("%s = %d outside [1, %d]", name, v, n)
	}
	return nil
}

// checkPairWords is the group-by record-width rule.
func checkPairWords(pw int) error {
	if pw != 1 && pw != 2 {
		return fmt.Errorf("pairWords = %d (want 1 or 2)", pw)
	}
	return nil
}

// SelectCap is the survivor capacity of the filter pass: one stripe of the
// arena streams the input, the rest holds survivors.
func SelectCap(mem, stripe int) int {
	c := mem - stripe
	if c < 0 {
		return 0
	}
	return c
}

// SelectSample is the deterministic client-side sample size for selecting
// rank r out of n: a Floyd–Rivest-style s = 16·n^(2/3), clamped to
// [256, n].  The sample is metadata (the coordinator samples the same way
// in the distributed sort); only the filter pass is charged I/O.
func SelectSample(n int) int {
	if n <= 256 {
		return n
	}
	s := 16 * icbrt(int64(n)*int64(n))
	if s < 256 {
		s = 256
	}
	if s > n {
		s = n
	}
	return s
}

// SelectDelta is the rank slack the threshold window allows around target
// rank r (1 ≤ r ≤ n): two binomial standard deviations of the sampled
// rank estimate plus the sample grid granularity, floored at 32.  With
// s = SelectSample(n) the true rank lands inside ±Δ with overwhelming
// probability; a miss is detected and falls back to the full sort.
func SelectDelta(n, r int) int {
	s := SelectSample(n)
	if s >= n {
		return 1 // exact: the sample is the input
	}
	sigma := memsort.Isqrt(int(int64(r) * int64(n-r) / int64(s)))
	delta := 2*sigma + n/s + 32
	return delta
}

// TopKBudget is the worst-case survivor count of a top-K filter pass: the
// K wanted keys plus the threshold window's slack.
func TopKBudget(n, k int) int {
	return k + 2*SelectDelta(n, k)
}

// QuantileBudget is the worst-case survivor count of a quantile filter
// pass: both window edges carry slack.
func QuantileBudget(n, r int) int {
	return 4*SelectDelta(n, r) + 64
}

// GroupCap is the in-memory aggregation capacity: distinct groups one
// memory load of accumulator state holds (key + accumulator + count ≈
// 4 words with hashing overhead).
func GroupCap(mem int) int {
	c := mem / 2
	if c < 1 {
		c = 1
	}
	return c
}

// padStripe pads n keys to a whole number of stripes, the scenario
// stripes' layout (streamed passes then charge exactly padded/stripe
// steps per pass).
func padStripe(n, stripe int) int {
	if n <= 0 {
		return 0
	}
	return memsort.CeilDiv(n, stripe) * stripe
}

// fullSortBaseline prices the "just sort everything" alternative: the
// chosen candidate's predicted read passes rescaled to the scenario's
// padded length, preferring the exact count when the geometry is regular.
func fullSortBaseline(shape Shape, w Workload) (Alg, float64, int) {
	alg, err := Choose(shape, w)
	if err != nil {
		return "", 0, 0
	}
	rep, err := Explain(shape, w, DefaultCalibration(shape))
	if err != nil {
		return "", 0, 0
	}
	c := rep.Candidate(alg)
	if c == nil || !c.Feasible {
		return "", 0, 0
	}
	read := c.ReadPasses
	if r, _, ok := ExactPasses(shape, w, alg); ok {
		read = r
	}
	return alg, read, c.PaddedN
}

// TopKPlan prices extracting the K smallest keys of n: one charged
// filtering pass at a sampled threshold, survivors sorted in memory, the
// K results written out — against the chosen full sort.
func TopKPlan(shape Shape, w Workload, k int) ScenarioPlan {
	return selectionPlan(KindTopK, shape, w, checkRank("topK", k, w.N), TopKBudget(w.N, k), k)
}

// QuantilePlan prices selecting the key of 1-indexed rank r out of n: one
// charged filtering pass keeping a window around the sampled rank, the
// answer read out of the sorted window.  No output stripe is written.
func QuantilePlan(shape Shape, w Workload, r int) ScenarioPlan {
	return selectionPlan(KindQuantile, shape, w, checkRank("rank", r, w.N), QuantileBudget(w.N, r), 0)
}

// selectionPlan is the filter route both selection kinds share: one read
// pass over the padded input with at most budget survivors held in memory,
// then results keys written out.  bad is the kind's parameter rule.
func selectionPlan(kind string, shape Shape, w Workload, bad error, budget, results int) ScenarioPlan {
	p := ScenarioPlan{Kind: kind, Route: RouteFilter}
	stripe := shape.Stripe()
	p.PaddedN = padStripe(w.N, stripe)
	alg, sortRead, _ := fullSortBaseline(shape, w)
	p.FullSortAlgorithm, p.FullSortReadPasses = alg, sortRead
	if bad != nil {
		p.Reason = bad.Error()
		return p
	}
	p.Sample = SelectSample(w.N)
	p.Budget = budget
	if cap := SelectCap(shape.Mem, stripe); budget > cap {
		p.Reason = fmt.Sprintf("survivor budget %d exceeds memory capacity %d", budget, cap)
		p.Route = RouteFullSort
		return p
	}
	p.Feasible = true
	p.Exact = true
	p.ReadSteps = int64(p.PaddedN / stripe)
	p.WriteSteps = int64(memsort.CeilDiv(memsort.CeilDiv(results, shape.B), shape.D))
	p.ReadPasses = float64(p.ReadSteps) * float64(stripe) / float64(p.PaddedN)
	p.WritePasses = float64(p.WriteSteps) * float64(stripe) / float64(p.PaddedN)
	p.UseScenario = alg != "" && p.ReadPasses < p.FullSortReadPasses
	return p
}

// GroupByPlan prices aggregating n records (pairWords words each: 1 for
// bare keys, 2 for key+value) into `groups` distinct groups: one charged
// read pass when the groups fit GroupCap(M), a hash-partition round trip
// (read + scatter write + per-partition read) when they fit the fanout's
// combined capacity, and the sort-then-scan route beyond that (a record
// sort carries the payloads; the aggregation scan rides on its output).
// Only the one-pass route is step-exact.  The partition route's scatter
// writes one block per disk per step (stream.Scatter), so its write steps
// measure within a few percent of the price; its read-back pays up to one
// partial stripe row per partition on top, and the padding depends on the
// hash split.  The sort route inherits the sort's own variability.
func GroupByPlan(shape Shape, n, groups, pairWords int) ScenarioPlan {
	p := ScenarioPlan{Kind: KindGroupBy}
	stripe := shape.Stripe()
	if err := checkPairWords(pairWords); err != nil {
		p.Reason = err.Error()
		return p
	}
	if n <= 0 {
		p.Reason = "empty input"
		return p
	}
	if groups <= 0 || groups > n {
		groups = n
	}
	p.PaddedN = padStripe(n*pairWords, stripe)
	cap := GroupCap(shape.Mem)
	// The sort-then-scan alternative: a record sort moving the payload
	// column (pairWords−1 words per record) with the keys.
	alg, sortRead, _ := fullSortBaseline(shape, Workload{N: n, PayloadWords: (pairWords - 1) * n})
	p.FullSortAlgorithm, p.FullSortReadPasses = alg, sortRead
	p.Feasible = true
	switch {
	case groups <= cap:
		p.Route = RouteOnePass
		p.Exact = true
		p.ReadSteps = int64(p.PaddedN / stripe)
	case groups <= PartitionFanout(groups, shape)*cap:
		p.Route = RoutePartition
		parts := PartitionFanout(groups, shape)
		// One full read, the scatter write (plus up to one padding block
		// per partition), and the partition read-back.
		blocks := p.PaddedN / shape.B
		p.ReadSteps = int64(p.PaddedN/stripe) + int64(memsort.CeilDiv(blocks+parts, shape.D))
		p.WriteSteps = int64(memsort.CeilDiv(blocks+parts, shape.D))
	default:
		// More groups than one partition round trip can table: sort the
		// records and scan.  The prediction is the sort's (a floor).
		p.Route = RouteFullSort
		if alg == "" {
			p.Feasible = false
			p.Reason = fmt.Sprintf("no candidate sorts %d records", n)
			return p
		}
		p.ReadPasses, p.WritePasses = sortRead, sortRead
		p.ReadSteps = int64(sortRead * float64(p.PaddedN) / float64(stripe))
		p.WriteSteps = p.ReadSteps
		return p
	}
	p.ReadPasses = float64(p.ReadSteps) * float64(stripe) / float64(p.PaddedN)
	p.WritePasses = float64(p.WriteSteps) * float64(stripe) / float64(p.PaddedN)
	p.UseScenario = alg != "" && p.ReadPasses < p.FullSortReadPasses
	return p
}

// PartitionFanout is the hash fanout of the group-by partition route for
// this many groups: enough partitions that each holds ≤ GroupCap(M)
// expected groups, bounded by the block-buffer fanout M/B (one staged block
// per partition).  GroupByPlan prices PartitionFanout(groups); the facade,
// which cannot trust the hint, scatters at the worst case PartitionFanout(n):
// a few more partial blocks and read-back rows than priced.
func PartitionFanout(groups int, shape Shape) int {
	maxF := shape.Mem / shape.B
	if maxF < 2 {
		maxF = 2
	}
	parts := memsort.CeilDiv(groups, GroupCap(shape.Mem))
	if parts < 2 {
		parts = 2
	}
	if parts > maxF {
		parts = maxF
	}
	return parts
}

// IngestPlan prices folding a sorted batch of `batch` keys into an
// already-sorted dataset of n keys: the planner-chosen sort of the batch
// alone, then one StreamMerge pass reading both sorted inputs and writing
// the merged output — against re-sorting all n+batch keys.
func IngestPlan(shape Shape, w Workload, batch int) ScenarioPlan {
	n := w.N
	p := ScenarioPlan{Kind: KindIngest, Route: RouteMerge}
	stripe := shape.Stripe()
	full := w
	full.N = n + batch
	alg, sortRead, _ := fullSortBaseline(shape, full)
	p.FullSortAlgorithm, p.FullSortReadPasses = alg, sortRead
	if n < 0 || batch <= 0 {
		p.Reason = fmt.Sprintf("bad sizes: dataset %d, batch %d", n, batch)
		return p
	}
	if 3*stripe > shape.Mem {
		p.Reason = fmt.Sprintf("merge needs 3 stripe buffers, D*B = %d too large for M = %d", stripe, shape.Mem)
		return p
	}
	// The batch sort, priced exactly when its geometry is regular.
	batchAlg, batchRead, _ := fullSortBaseline(shape, Workload{N: batch, Universe: w.Universe})
	if batchAlg == "" {
		p.Reason = fmt.Sprintf("no candidate sorts the %d-key batch", batch)
		return p
	}
	br, bw, exact := ExactPasses(shape, Workload{N: batch, Universe: w.Universe}, batchAlg)
	if !exact {
		br, bw = batchRead, batchRead
	}
	batchPadded, err := PadFor(shape.Mem, batchAlg, batch)
	if err != nil {
		p.Reason = err.Error()
		return p
	}
	padA := padStripe(n, stripe)
	padB := padStripe(batch, stripe)
	p.PaddedN = padA + padB
	p.Feasible = true
	p.Exact = exact
	mergeSteps := int64(p.PaddedN / stripe)
	p.ReadSteps = int64(br*float64(batchPadded)/float64(stripe)) + mergeSteps
	p.WriteSteps = int64(bw*float64(batchPadded)/float64(stripe)) + mergeSteps
	p.ReadPasses = float64(p.ReadSteps) * float64(stripe) / float64(p.PaddedN)
	p.WritePasses = float64(p.WriteSteps) * float64(stripe) / float64(p.PaddedN)
	p.UseScenario = alg != "" && p.ReadPasses < p.FullSortReadPasses
	return p
}

// selectEnvelope is the top-K / quantile scratch: the padded input, up to
// half again for survivors and results, and allocator slack.
func selectEnvelope(shape Shape, q ScenarioQuery) int {
	stripe := shape.Stripe()
	return padStripe(q.N, stripe) + padStripe(q.N, stripe)/2 + 2*stripe
}

// ingestEnvelope is the ingest scratch: dataset + batch (with the batch
// sort's own envelope) + the merged output.
func ingestEnvelope(shape Shape, q ScenarioQuery) int {
	stripe := shape.Stripe()
	pad := padStripe(q.N, stripe) + padStripe(q.Batch, stripe)
	env := 0
	if alg, _, _ := fullSortBaseline(shape, Workload{N: q.Batch}); alg != "" {
		if bp, err := PadFor(shape.Mem, alg, q.Batch); err == nil {
			env = DiskEnvelope(alg, bp, stripe)
		}
	}
	return 2*pad + env + 2*stripe
}

// icbrt is the integer cube root (floor).
func icbrt(x int64) int {
	if x <= 0 {
		return 0
	}
	r := int64(1)
	for r*r*r <= x {
		r++
	}
	return int(r - 1)
}
