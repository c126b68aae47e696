package plan

import (
	"errors"
	"fmt"
	"math"
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
	// sample size (SelectionDraw's) and the survivor capacity the filter
	// pass holds in memory (SelectCap).  Zero for groupby/ingest.
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

// SelectSample caps the client-side sample for selecting out of n keys: a
// Floyd–Rivest-style 16·n^(2/3), clamped to [256, n].  SelectionDraw
// draws the fewest keys up to it that meet the route's miss bound.  The
// sample is metadata (the coordinator samples the same way in the
// distributed sort); only the filter pass is charged I/O.
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

// SelectDelta is the rank slack of the selection kinds' feasibility rule
// around target rank r (1 ≤ r ≤ n): two binomial standard deviations of
// the rank estimate from SelectSample(n) draws plus the sample grid
// granularity, floored at 32.  TopKBudget and quantileBudget are built
// from it, and a plan is feasible when they fit SelectCap; the window the
// route filters with is SelectionDraw's.
func SelectDelta(n, r int) int {
	s := SelectSample(n)
	if s >= n {
		return 1 // exact: the sample is the input
	}
	sigma := memsort.Isqrt(int(int64(r) * int64(n-r) / int64(s)))
	delta := 2*sigma + n/s + 32
	return delta
}

// TopKBudget is the top-K route's window measure, the size feasibility
// compares with SelectCap: the K wanted keys plus the slack of a
// SelectDelta window on both sides.
func TopKBudget(n, k int) int {
	return k + 2*SelectDelta(n, k)
}

// quantileBudget is the quantile route's window measure: both window
// edges carry SelectDelta's slack.
func quantileBudget(n, r int) int {
	return 4*SelectDelta(n, r) + 64
}

// Draw is a selection route's sample: how many keys it draws and which
// order statistics of the sorted draw are its filter window's edges.  The
// window keeps the keys v with lo ≤ v ≤ hi.
type Draw struct {
	// S is the number of draws: the input itself when S ≥ n, otherwise S
	// keys drawn uniformly with replacement.
	S int
	// Lo and Hi are the 0-indexed positions, in the sorted draw, of the
	// keys that are the window's lower and upper edges.  −1 leaves that
	// side open: every key below the upper edge, or every key above the
	// lower one, survives.  Top-K's window is always open below.
	Lo, Hi int
	// Miss bounds, for distinct keys, the chance the window misses:
	// fewer survivors than the K wanted or a quantile outside the window,
	// or more survivors than SelectCap.  It is the sum of the Chernoff
	// bounds on the binomial tails behind each edge.
	Miss float64
}

// SelectionDraw sizes q's sample (a top-K or quantile query) from the
// memory the filter pass already holds: each window edge must land in a
// band of ranks that keeps the answer inside the window and at most
// SelectCap survivors, and the draw is the smallest S ≤ SelectSample(n)
// (found by bisection; the bound falls as S grows) whose edges, each at
// the index minimizing its own bound, put the summed bound Miss at or
// under M^−α.  When no S meets it, the draw is SelectSample(n) keys at the
// indexes minimizing the bound — exact, with Miss = 0, when that is the
// whole input.
func SelectionDraw(shape Shape, q ScenarioQuery) Draw {
	n := q.N
	bands := selectBands(SelectCap(shape.Mem, shape.Stripe()), q)
	alpha := shape.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	target := math.Pow(float64(shape.Mem), -alpha)
	smax := SelectSample(n)
	random := min(smax, n-1) // S = n draws the input itself
	if random >= 1 && bands.draw(random, n).Miss <= target {
		lo, hi := 1, random // bands.draw(hi) meets the target
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bands.draw(mid, n).Miss <= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return bands.draw(lo, n)
	}
	if smax >= n {
		return bands.exact(n)
	}
	return bands.draw(smax, n)
}

// band is the ranks (a, b] a window edge must land in: the key the sorted
// draw holds at the edge's index must have rank above a and at most b.
// open marks an edge the window does without.
type band struct {
	a, b int
	open bool
}

// bands are the lower and upper edges' bands of one selection window.
type bands struct{ lo, hi band }

// selectBands splits the survivor capacity between q's window edges.
// Top-K's upper edge needs rank in (K−1, cap]; its lower side is open.  A
// quantile of rank r needs its lower edge in (r−cLo−1, r] and its upper
// edge in (r−1, r+cHi], with cLo + cHi = cap − 1 split evenly; an edge
// whose band reaches the end of the input is open, and its share goes to
// the other edge.
func selectBands(capKeys int, q ScenarioQuery) bands {
	n := q.N
	if q.Kind == KindTopK {
		return bands{lo: band{open: true}, hi: band{a: q.K - 1, b: capKeys, open: capKeys >= n}}
	}
	r := q.Rank
	half := (capKeys - 1) / 2
	cLo, cHi := half, capKeys-1-half
	switch {
	case r-1 <= half:
		cLo, cHi = r-1, capKeys-r
	case n-r <= cHi:
		cLo, cHi = capKeys-1-(n-r), n-r
	}
	return bands{
		lo: band{a: r - cLo - 1, b: r, open: cLo >= r-1},
		hi: band{a: r - 1, b: r + cHi, open: cHi >= n-r},
	}
}

// draw places both edges for s draws out of n, each at the index
// minimizing its bound, and sums the bounds.
func (bs bands) draw(s, n int) Draw {
	d := Draw{S: s, Lo: -1, Hi: -1}
	if !bs.lo.open {
		var miss float64
		d.Lo, miss = bs.lo.index(s, n)
		d.Miss += miss
	}
	if !bs.hi.open {
		var miss float64
		d.Hi, miss = bs.hi.index(s, n)
		d.Miss += miss
	}
	return d
}

// exact is the draw of the whole input: the sorted draw is the sorted
// input, so each edge sits at the rank its band ends nearest the answer
// and cannot miss.
func (bs bands) exact(n int) Draw {
	d := Draw{S: n, Lo: -1, Hi: -1}
	if !bs.lo.open {
		d.Lo = bs.lo.b - 1
	}
	if !bs.hi.open {
		d.Hi = bs.hi.a
	}
	return d
}

// index returns the sorted-draw index whose key lands in the band with
// the least bounded miss out of s draws from n ranks, and that bound.  The
// key at idx has rank ≤ a when at least idx+1 draws do, and rank > b when
// at most idx draws have rank ≤ b: the first bound falls with idx and the
// second rises, so the least sum sits where they cross.
func (bd band) index(s, n int) (int, float64) {
	if bd.b <= bd.a {
		return min(max(bd.a, 0), s-1), 1 // an empty band always misses
	}
	pa, pb := float64(bd.a)/float64(n), float64(bd.b)/float64(n)
	miss := func(idx int) float64 { return tailAbove(s, pa, idx+1) + tailBelow(s, pb, idx) }
	lo, hi := 0, s-1 // the first idx whose rising bound reaches the falling one, or s-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if tailBelow(s, pb, mid) >= tailAbove(s, pa, mid+1) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && miss(lo-1) < miss(lo) {
		lo--
	}
	return lo, min(miss(lo), 1)
}

// tailAbove bounds P(X ≥ a) for X ~ Binomial(s, p) by the Chernoff bound
// exp(−s·KL(a/s ‖ p)), or 1 when a/s is not above p.
func tailAbove(s int, p float64, a int) float64 {
	if a > s {
		return 0
	}
	q := float64(a) / float64(s)
	if q <= p {
		return 1
	}
	return math.Exp(-float64(s) * kl(q, p))
}

// tailBelow bounds P(X ≤ a) for X ~ Binomial(s, p) the same way, or 1
// when a/s is not below p.
func tailBelow(s int, p float64, a int) float64 {
	if a < 0 {
		return 0
	}
	q := float64(a) / float64(s)
	if q >= p {
		return 1
	}
	return math.Exp(-float64(s) * kl(q, p))
}

// kl is the Kullback–Leibler divergence of Bernoulli(q) from
// Bernoulli(p); +Inf where q puts mass p cannot.
func kl(q, p float64) float64 {
	d := 0.0
	if q > 0 {
		d += q * math.Log(q/p)
	}
	if q < 1 {
		d += (1 - q) * (math.Log1p(-q) - math.Log1p(-p))
	}
	return d
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
	rep, err := Explain(shape, w, DefaultCalibration(shape))
	if err != nil {
		return "", 0, 0
	}
	alg := rep.Chosen
	c := rep.Candidate(alg)
	read := c.ReadPasses
	if r, _, ok := ExactPasses(shape, w, alg); ok {
		read = r
	}
	return alg, read, c.PaddedN
}

// TopKPlan prices extracting the K smallest keys of n: one charged
// filtering pass at a sampled threshold, the K smallest survivors sorted
// in memory and written out — against the chosen full sort.
func TopKPlan(shape Shape, w Workload, k int) ScenarioPlan {
	q := ScenarioQuery{Kind: KindTopK, N: w.N, K: k}
	return selectionPlan(shape, w, q, checkRank("topK", k, w.N), TopKBudget(w.N, k), k)
}

// QuantilePlan prices selecting the key of 1-indexed rank r out of n: one
// charged filtering pass keeping a window around the sampled rank, the
// answer selected out of the window.  No output stripe is written.
func QuantilePlan(shape Shape, w Workload, r int) ScenarioPlan {
	q := ScenarioQuery{Kind: KindQuantile, N: w.N, Rank: r}
	return selectionPlan(shape, w, q, checkRank("rank", r, w.N), quantileBudget(w.N, r), 0)
}

// selectionPlan is the filter route both selection kinds share: one read
// pass over the padded input holding up to SelectCap survivors in memory
// (the Budget), then results keys written out.  The route is feasible when
// the kind's window measure (TopKBudget or quantileBudget) fits that
// capacity; the Sample is SelectionDraw's.  bad is the kind's parameter
// rule.
func selectionPlan(shape Shape, w Workload, q ScenarioQuery, bad error, measure, results int) ScenarioPlan {
	p := ScenarioPlan{Kind: q.Kind, Route: RouteFilter}
	stripe := shape.Stripe()
	p.PaddedN = padStripe(w.N, stripe)
	alg, sortRead, _ := fullSortBaseline(shape, w)
	p.FullSortAlgorithm, p.FullSortReadPasses = alg, sortRead
	if bad != nil {
		p.Reason = bad.Error()
		return p
	}
	p.Sample = SelectionDraw(shape, q).S
	p.Budget = SelectCap(shape.Mem, stripe)
	if measure > p.Budget {
		p.Reason = fmt.Sprintf("window measure %d exceeds survivor capacity %d", measure, p.Budget)
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
	batchAlg, batchRead, batchPadded := fullSortBaseline(shape, Workload{N: batch, Universe: w.Universe})
	if batchAlg == "" {
		p.Reason = fmt.Sprintf("no candidate sorts the %d-key batch", batch)
		return p
	}
	br, bw, exact := ExactPasses(shape, Workload{N: batch, Universe: w.Universe}, batchAlg)
	if !exact {
		br, bw = batchRead, batchRead
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
	if alg, _, bp := fullSortBaseline(shape, Workload{N: q.Batch}); alg != "" {
		env = DiskEnvelope(shape, Workload{N: q.Batch}, alg, bp)
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
