package repro

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// The query scenarios carry the same determinism guarantee as the sorts:
// for any worker count, disk backend, and compute kernel, the result, the
// pass counts, the pdm.Stats, and the I/O trace are bit-identical.  These
// tests also pin each scenario to its sort-based oracle (top-K ==
// sort-then-head, group-by == sort-then-scan, ingest == re-sort) and the
// planner's closed-form step predictions to the measured charges.

// scenarioCase is one scenario invocation whose result flattens to a key
// slice for the shared determinism comparison; want is the sort- or
// map-based oracle's answer, flattened the same way.
type scenarioCase struct {
	name string
	run  func(m *Machine) ([]int64, *Report, error)
	want []int64
}

// flattenAggs folds a group-by result into the determinism comparison's
// flat key slice.
func flattenAggs(aggs []GroupAgg) []int64 {
	out := make([]int64, 0, 5*len(aggs))
	for _, a := range aggs {
		out = append(out, a.Key, a.Count, a.Sum, a.Min, a.Max)
	}
	return out
}

// scenarioSuite builds one case per scenario kind and route over fixed
// deterministic inputs sized for a machine of M = mem (a multiple of
// 1024; the sizes below are the mem = 1024 ones and scale with it): topk
// and quantile, the three group-by shapes (97 groups for the one-pass
// table, 8192 and 20000 for the partition and sort-then-scan routes), and
// the ingest merge.  The planner prices the routes per machine, so the
// larger shapes change route with M — at 4096 the quantile takes the
// filter and the widest group-by partitions — which only widens what the
// determinism suites cover.
func scenarioSuite(mem int) []scenarioCase {
	scale := mem / 1024
	n := 20000 * scale
	keys := workload.Uniform(n, 0, 1<<40, 7)
	gkeysFew := workload.FewDistinct(n, 97, 11)
	gkeysPart := workload.Perm(8192*scale, 13)
	gkeysWide := workload.Perm(n, 17)
	payloads := workload.Uniform(n, -1000, 1000, 19)
	dataset := append([]int64(nil), keys...)
	slices.Sort(dataset)
	batch := workload.Uniform(mem, 0, 1<<40, 23)
	merged := append(slices.Clone(dataset), batch...)
	slices.Sort(merged)
	groupBy := func(name string, gkeys, payloads []int64, hint int) scenarioCase {
		return scenarioCase{
			name: name,
			run: func(m *Machine) ([]int64, *Report, error) {
				aggs, rep, err := m.GroupBy(gkeys, payloads, hint)
				return flattenAggs(aggs), rep, err
			},
			want: flattenAggs(groupOracle(gkeys, payloads)),
		}
	}
	return []scenarioCase{
		{name: "topk", want: dataset[:64], run: func(m *Machine) ([]int64, *Report, error) {
			return m.TopK(keys, 64)
		}},
		{name: "quantile", want: dataset[n/3-1 : n/3], run: func(m *Machine) ([]int64, *Report, error) {
			v, rep, err := m.Quantile(keys, n/3)
			return []int64{v}, rep, err
		}},
		groupBy("groupby-onepass", gkeysFew, payloads, 97),
		groupBy("groupby-partition", gkeysPart, payloads[:len(gkeysPart)], len(gkeysPart)),
		groupBy("groupby-fullsort", gkeysWide, payloads, n),
		{name: "ingest", want: merged, run: func(m *Machine) ([]int64, *Report, error) {
			return m.Ingest(dataset, batch)
		}},
	}
}

// runScenarioCase executes one scenario on a machine built from cfg, with
// tracing on, and captures everything the determinism guarantee covers.
func runScenarioCase(t *testing.T, cfg MachineConfig, sc scenarioCase) detRun {
	t.Helper()
	if cfg.Memory == 0 {
		cfg.Memory = 1024
	}
	cfg.Pipeline = PipelineConfig{Prefetch: 2, WriteBehind: 2}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Array().EnableTrace()
	out, rep, err := sc.run(m)
	if err != nil {
		t.Fatal(err)
	}
	if leak := m.Array().Arena().InUse(); leak != 0 {
		t.Fatalf("scenario leaked %d arena keys", leak)
	}
	return detRun{out: out, rep: rep, stats: normalizeStats(m.Array().Stats()), trace: m.Array().Trace()}
}

// TestScenarioWorkerDeterminism pits Workers=1 against Workers=8 on every
// scenario route: results, pass counts, stats, and traces must match.
func TestScenarioWorkerDeterminism(t *testing.T) {
	for _, sc := range scenarioSuite(1024) {
		t.Run(sc.name, func(t *testing.T) {
			serial := runScenarioCase(t, MachineConfig{Workers: 1}, sc)
			parallel := runScenarioCase(t, MachineConfig{Workers: 8}, sc)
			assertIdenticalRuns(t, serial, parallel)
		})
	}
}

// TestScenarioBackendDeterminism pits the file backend against mmap, at
// one and eight workers.
func TestScenarioBackendDeterminism(t *testing.T) {
	for _, sc := range scenarioSuite(1024) {
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				file := runScenarioCase(t, MachineConfig{Workers: workers, Dir: t.TempDir(), Backend: BackendFile}, sc)
				mmap := runScenarioCase(t, MachineConfig{Workers: workers, Dir: t.TempDir(), Backend: BackendMmap}, sc)
				assertIdenticalRuns(t, file, mmap)
			}
		})
	}
}

// TestScenarioKernelDeterminism runs every scenario route under both
// compute kernels — picked by geometry, see kernelMems — at one and eight
// workers: the result is the oracle's, and everything else matches across
// worker counts.
func TestScenarioKernelDeterminism(t *testing.T) {
	suites := [][]scenarioCase{scenarioSuite(kernelMems[0]), scenarioSuite(kernelMems[1])}
	for i, sc := range suites[0] {
		t.Run(sc.name, func(t *testing.T) {
			for j, mem := range kernelMems {
				sc := suites[j][i]
				serial := runScenarioCase(t, MachineConfig{Memory: mem, Workers: 1}, sc)
				if !slices.Equal(serial.out, sc.want) {
					t.Fatalf("M = %d: result differs from the oracle (route %s)", mem, serial.rep.ScenarioRoute)
				}
				assertIdenticalRuns(t, serial, runScenarioCase(t, MachineConfig{Memory: mem, Workers: 8}, sc))
			}
		})
	}
}

// groupOracle aggregates with a plain map — the reference GroupBy is
// checked against on every route.
func groupOracle(keys, payloads []int64) []GroupAgg {
	idx := make(map[int64]int)
	var out []GroupAgg
	for i, k := range keys {
		v := k
		if payloads != nil {
			v = payloads[i]
		}
		j, ok := idx[k]
		if !ok {
			idx[k] = len(out)
			out = append(out, GroupAgg{Key: k, Count: 1, Sum: v, Min: v, Max: v})
			continue
		}
		a := &out[j]
		a.Count++
		a.Sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func newScenarioMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{Memory: 1024, Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestTopKOracle: the scenario result equals sort-then-head, for k across
// the budget range and on duplicate-heavy input.
func TestTopKOracle(t *testing.T) {
	const n = 30000
	for _, tc := range []struct {
		name string
		keys []int64
	}{
		{"uniform", workload.Uniform(n, -1<<40, 1<<40, 3)},
		{"zipf", workload.ZipfSkewed(n, 1.2, 200, 5)},
		{"organ", workload.Organ(n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := append([]int64(nil), tc.keys...)
			slices.Sort(want)
			m := newScenarioMachine(t)
			for _, k := range []int{1, 64, 700} {
				got, rep, err := m.TopK(tc.keys, k)
				if err != nil {
					t.Fatalf("TopK(%d): %v", k, err)
				}
				if !slices.Equal(got, want[:k]) {
					t.Fatalf("TopK(%d) != sort-then-head (route %s)", k, rep.ScenarioRoute)
				}
				if rep.Scenario != "topk" {
					t.Fatalf("Report.Scenario = %q", rep.Scenario)
				}
			}
		})
	}
}

// TestQuantileOracle: the selected key equals the sorted input at the
// rank, across extreme and central ranks.
func TestQuantileOracle(t *testing.T) {
	const n = 3000 // small enough that the filter route is feasible at mem=1024
	keys := workload.Uniform(n, -1<<30, 1<<30, 9)
	want := append([]int64(nil), keys...)
	slices.Sort(want)
	m := newScenarioMachine(t)
	for _, r := range []int{1, 2, n / 2, n - 1, n} {
		got, rep, err := m.Quantile(keys, r)
		if err != nil {
			t.Fatalf("Quantile(%d): %v", r, err)
		}
		if got != want[r-1] {
			t.Fatalf("Quantile(%d) = %d, want %d (route %s)", r, got, want[r-1], rep.ScenarioRoute)
		}
	}
}

// TestGroupByOracle: every route agrees with the map oracle, with and
// without a payload column.
func TestGroupByOracle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys      []int64
		hint      int
		wantRoute string
	}{
		{"onepass", workload.FewDistinct(12000, 300, 21), 300, "onepass"},
		{"partition", workload.Perm(6000, 23), 6000, "partition"},
		{"fullsort", workload.Perm(20000, 25), 20000, "fullsort"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payloads := workload.Uniform(len(tc.keys), -500, 500, 27)
			m := newScenarioMachine(t)
			for _, withPayloads := range []bool{false, true} {
				var p []int64
				if withPayloads {
					p = payloads
				}
				got, rep, err := m.GroupBy(tc.keys, p, tc.hint)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ScenarioRoute != tc.wantRoute {
					t.Fatalf("route = %q, want %q", rep.ScenarioRoute, tc.wantRoute)
				}
				want := groupOracle(tc.keys, p)
				if !slices.Equal(flattenAggs(got), flattenAggs(want)) {
					t.Fatalf("GroupBy != oracle on route %s (payloads=%v)", rep.ScenarioRoute, withPayloads)
				}
			}
		})
	}
}

// TestGroupByHintTooLow: an undercounted hint is detected (ErrOverflow in
// the one-pass table) and escalates with FellBack, still matching the
// oracle.
func TestGroupByHintTooLow(t *testing.T) {
	keys := workload.Perm(6000, 31) // 6000 distinct, hinted as 10
	m := newScenarioMachine(t)
	got, rep, err := m.GroupBy(keys, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("expected FellBack on an undercounted group hint")
	}
	if !slices.Equal(flattenAggs(got), flattenAggs(groupOracle(keys, nil))) {
		t.Fatal("escalated GroupBy != oracle")
	}
}

// TestIngestOracle: the merged output equals re-sorting the concatenation,
// including duplicate keys across the two inputs and an empty batch.
func TestIngestOracle(t *testing.T) {
	const n = 20000
	dataset := workload.ZipfSkewed(n, 1.2, 5000, 33)
	slices.Sort(dataset)
	m := newScenarioMachine(t)
	for _, bn := range []int{0, 1, 1024, 4096} {
		batch := workload.ZipfSkewed(bn, 1.2, 5000, 35)
		got, rep, err := m.Ingest(dataset, batch)
		if err != nil {
			t.Fatalf("Ingest(batch=%d): %v", bn, err)
		}
		want := append(append([]int64(nil), dataset...), batch...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Ingest(batch=%d) != re-sort (route %s)", bn, rep.ScenarioRoute)
		}
		if bn > 0 && rep.ScenarioRoute != "merge" {
			t.Fatalf("route = %q, want merge", rep.ScenarioRoute)
		}
	}
}

// TestIngestRejectsUnsorted: the dataset contract is validated, not
// trusted.
func TestIngestRejectsUnsorted(t *testing.T) {
	m := newScenarioMachine(t)
	if _, _, err := m.Ingest([]int64{3, 1, 2}, []int64{5}); err == nil {
		t.Fatal("Ingest accepted an unsorted dataset")
	}
}

// TestScenarioArgValidation: out-of-range parameters and sentinel keys are
// rejected up front.
func TestScenarioArgValidation(t *testing.T) {
	m := newScenarioMachine(t)
	keys := workload.Perm(100, 1)
	if _, _, err := m.TopK(keys, 0); err == nil {
		t.Fatal("TopK accepted k=0")
	}
	if _, _, err := m.TopK(keys, 101); err == nil {
		t.Fatal("TopK accepted k>n")
	}
	if _, _, err := m.Quantile(keys, 0); err == nil {
		t.Fatal("Quantile accepted rank 0")
	}
	if _, _, err := m.GroupBy(keys, []int64{1}, 0); err == nil {
		t.Fatal("GroupBy accepted a mismatched payload column")
	}
	bad := []int64{1, int64(^uint64(0) >> 1)} // MaxInt64 sentinel
	if _, _, err := m.TopK(bad, 1); err != ErrKeyRange {
		t.Fatalf("TopK(MaxInt64) err = %v, want ErrKeyRange", err)
	}
}

// TestScenarioPredictionMatchesMeasured is the planning acceptance: at
// N >= 4M the top-K and ingest scenario routes must price strictly fewer
// read passes than the chosen full sort, the Auto decision must pick them,
// and a non-fallback run must charge exactly the predicted steps when the
// plan claims exactness.
func TestScenarioPredictionMatchesMeasured(t *testing.T) {
	const mem = 1024
	m := newScenarioMachine(t)

	t.Run("topk", func(t *testing.T) {
		for _, n := range []int{4 * mem, 65536, 200000} {
			keys := workload.Uniform(n, 0, 1<<40, int64(n))
			p, err := m.ExplainScenario(ScenarioSpec{Kind: "topk", N: n, K: 64})
			if err != nil {
				t.Fatal(err)
			}
			if !p.Feasible || !p.UseScenario || !p.Exact {
				t.Fatalf("n=%d: plan %+v, want feasible+use+exact", n, p)
			}
			if p.ReadPasses >= p.FullSortReadPasses {
				t.Fatalf("n=%d: scenario %.3f read passes not under full sort %.3f",
					n, p.ReadPasses, p.FullSortReadPasses)
			}
			_, rep, err := m.TopK(keys, 64)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FellBack {
				t.Fatalf("n=%d: unexpected sampling fallback", n)
			}
			if rep.IO.ReadSteps != p.ReadSteps || rep.IO.WriteSteps != p.WriteSteps {
				t.Fatalf("n=%d: measured %d/%d steps, predicted %d/%d",
					n, rep.IO.ReadSteps, rep.IO.WriteSteps, p.ReadSteps, p.WriteSteps)
			}
		}
	})

	t.Run("quantile", func(t *testing.T) {
		// The quantile budget needs the whole window in memory, so the
		// filter route is only priced in at modest N for mem=1024.
		n := 4 * mem
		keys := workload.Uniform(n, 0, 1<<40, 41)
		p, err := m.ExplainScenario(ScenarioSpec{Kind: "quantile", N: n, Rank: n / 2})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Feasible || !p.UseScenario || !p.Exact {
			t.Fatalf("plan %+v, want feasible+use+exact", p)
		}
		_, rep, err := m.Quantile(keys, n/2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FellBack {
			t.Fatal("unexpected window miss")
		}
		if rep.IO.ReadSteps != p.ReadSteps {
			t.Fatalf("measured %d read steps, predicted %d", rep.IO.ReadSteps, p.ReadSteps)
		}
	})

	t.Run("groupby-onepass", func(t *testing.T) {
		n := 65536
		keys := workload.FewDistinct(n, 400, 43)
		p, err := m.ExplainScenario(ScenarioSpec{Kind: "groupby", N: n, Groups: 400})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Feasible || !p.Exact || p.Route != "onepass" {
			t.Fatalf("plan %+v, want exact onepass", p)
		}
		_, rep, err := m.GroupBy(keys, nil, 400)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FellBack {
			t.Fatal("unexpected overflow escalation")
		}
		if rep.IO.ReadSteps != p.ReadSteps {
			t.Fatalf("measured %d read steps, predicted %d", rep.IO.ReadSteps, p.ReadSteps)
		}
	})

	t.Run("ingest", func(t *testing.T) {
		for _, n := range []int{65536, 200000} {
			dataset := workload.Uniform(n, 0, 1<<40, int64(n))
			slices.Sort(dataset)
			batch := workload.Uniform(n/32, 0, 1<<40, 45)
			p, err := m.ExplainScenario(ScenarioSpec{Kind: "ingest", N: n, Batch: len(batch)})
			if err != nil {
				t.Fatal(err)
			}
			if !p.Feasible || !p.UseScenario {
				t.Fatalf("n=%d: plan %+v, want feasible+use", n, p)
			}
			if p.ReadPasses >= p.FullSortReadPasses {
				t.Fatalf("n=%d: scenario %.3f read passes not under full sort %.3f",
					n, p.ReadPasses, p.FullSortReadPasses)
			}
			_, rep, err := m.Ingest(dataset, batch)
			if err != nil {
				t.Fatal(err)
			}
			if p.Exact && !rep.FellBack &&
				(rep.IO.ReadSteps != p.ReadSteps || rep.IO.WriteSteps != p.WriteSteps) {
				t.Fatalf("n=%d: measured %d/%d steps, predicted %d/%d",
					n, rep.IO.ReadSteps, rep.IO.WriteSteps, p.ReadSteps, p.WriteSteps)
			}
		}
	})
}

// TestGroupByPartitionWriteStepsMatchPlan pins the partition route's
// charged steps to plan.GroupByPlan, which UseScenario trusts: the scatter
// write within 5% of ⌈(blocks+parts)/D⌉ (it was one step per block, 16–64×
// the plan, when each block was written as its partition filled it), the
// reads within one partial row per partition of the plan's.  The facade
// partitions at PartitionFanout(n), the plan prices PartitionFanout(groups).
func TestGroupByPartitionWriteStepsMatchPlan(t *testing.T) {
	for _, tc := range []struct{ mem, n int }{{65536, 4 << 20}, {4096, 256 << 10}, {4096, 512 << 10}} {
		if tc.mem > 4096 && testing.Short() {
			continue
		}
		keys := workload.FewDistinct(tc.n, tc.n/4, int64(tc.n))
		for pairWords, payloads := range map[int][]int64{1: nil, 2: keys} {
			m, err := NewMachine(MachineConfig{Memory: tc.mem, Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
			if err != nil {
				t.Fatal(err)
			}
			p := plan.GroupByPlan(m.scenarioShape(), tc.n, tc.n/4, pairWords)
			_, rep, err := m.GroupBy(keys, payloads, tc.n/4)
			peak, leak := m.Array().Arena().Peak(), m.Array().Arena().InUse()
			parts := plan.PartitionFanout(tc.n, m.scenarioShape())
			arenaCap := m.Array().Config().ArenaCapacity()
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			if p.Route != plan.RoutePartition || rep.ScenarioRoute != plan.RoutePartition || rep.FellBack {
				t.Fatalf("M=%d n=%d: planned %q, ran %q (fellBack %v), want the partition route", tc.mem, tc.n, p.Route, rep.ScenarioRoute, rep.FellBack)
			}
			t.Logf("M=%d n=%d pairWords=%d: writes %d blocks in %d steps (plan %d), reads %d steps (plan %d, %d parts)",
				tc.mem, tc.n, pairWords, rep.IO.BlocksWritten, rep.IO.WriteSteps, p.WriteSteps, rep.IO.ReadSteps, p.ReadSteps, parts)
			if float64(rep.IO.WriteSteps) > 1.05*float64(p.WriteSteps) {
				t.Errorf("M=%d n=%d pairWords=%d: %d write steps for %d blocks, plan %d", tc.mem, tc.n, pairWords, rep.IO.WriteSteps, rep.IO.BlocksWritten, p.WriteSteps)
			}
			if rep.IO.ReadSteps > p.ReadSteps+int64(parts) {
				t.Errorf("M=%d n=%d pairWords=%d: %d read steps, plan %d + %d partitions", tc.mem, tc.n, pairWords, rep.IO.ReadSteps, p.ReadSteps, parts)
			}
			if leak != 0 || peak > arenaCap {
				t.Errorf("M=%d n=%d pairWords=%d: arena peak %d of %d, %d left in use", tc.mem, tc.n, pairWords, peak, arenaCap, leak)
			}
		}
	}
}

// TestScenarioPlanProperties fuzzes the scenario planner lightly: for
// random shapes and sizes, plans must be internally consistent (passes
// derived from steps, budget/sample positive on feasible selection plans,
// routes named) — and infeasible plans must carry a reason.
func TestScenarioPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mems := []int{256, 1024, 4096}
	for i := 0; i < 200; i++ {
		mem := mems[rng.Intn(len(mems))]
		b := isqrtInt(mem)
		d := 1 << rng.Intn(6) // 1..32, always divides the power-of-two B
		if d > b {
			d = b
		}
		shape := plan.Shape{Mem: mem, B: b, D: d, Alpha: 1}
		n := 1 + rng.Intn(300000)
		var p plan.ScenarioPlan
		switch rng.Intn(4) {
		case 0:
			p = plan.TopKPlan(shape, plan.Workload{N: n}, 1+rng.Intn(n))
		case 1:
			p = plan.QuantilePlan(shape, plan.Workload{N: n}, 1+rng.Intn(n))
		case 2:
			p = plan.GroupByPlan(shape, n, 1+rng.Intn(n), 1+rng.Intn(2))
		case 3:
			p = plan.IngestPlan(shape, plan.Workload{N: n}, 1+rng.Intn(n))
		}
		if !p.Feasible {
			if p.Reason == "" {
				t.Fatalf("infeasible plan without a reason: %+v", p)
			}
			continue
		}
		if p.Route == "" || p.PaddedN <= 0 {
			t.Fatalf("feasible plan missing route or padding: %+v", p)
		}
		stripe := shape.Stripe()
		if want := float64(p.ReadSteps) * float64(stripe) / float64(p.PaddedN); p.Route != "fullsort" && p.ReadPasses != want {
			t.Fatalf("ReadPasses %.6f != steps-derived %.6f: %+v", p.ReadPasses, want, p)
		}
		if (p.Kind == "topk" || p.Kind == "quantile") && (p.Sample <= 0 || p.Budget <= 0) {
			t.Fatalf("selection plan without sample/budget: %+v", p)
		}
	}
}

func isqrtInt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// TestScenarioDiskEnvelopeBoundsFootprint: for every kind (and each
// group-by route), the scenario table's disk envelope bounds the scratch
// high-water a run on the scenario route actually touches — the number
// the scheduler reserves before admitting the job.
func TestScenarioDiskEnvelopeBoundsFootprint(t *testing.T) {
	const mem, n = 1024, 65536
	sorted := workload.Sorted(n)
	for _, tc := range []struct {
		name  string
		route string
		spec  JobSpec
	}{
		{"topk", plan.RouteFilter, JobSpec{Scenario: plan.KindTopK, TopK: 64, Keys: workload.Uniform(n, 0, 1<<40, 1)}},
		{"quantile", plan.RouteFilter, JobSpec{Scenario: plan.KindQuantile, Rank: 2 * mem, Keys: workload.Uniform(4*mem, 0, 1<<40, 2)}},
		{"groupby-onepass", plan.RouteOnePass, JobSpec{Scenario: plan.KindGroupBy, Groups: 400, Keys: workload.FewDistinct(n, 400, 3)}},
		{"groupby-pairs", plan.RouteOnePass, JobSpec{Scenario: plan.KindGroupBy, Groups: 400,
			Keys: workload.FewDistinct(n, 400, 4), GroupPayloads: workload.Uniform(n, 0, 1000, 5)}},
		{"groupby-partition", plan.RoutePartition, JobSpec{Scenario: plan.KindGroupBy, Groups: 4000, Keys: workload.FewDistinct(n, 4000, 6)}},
		{"ingest", plan.RouteMerge, JobSpec{Scenario: plan.KindIngest, Keys: sorted, IngestBatch: workload.Uniform(n/32, 0, n, 7)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			m := newScenarioMachine(t)
			_, rep, err := m.RunScenario(&tc.spec, tc.spec.Keys)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ScenarioRoute != tc.route || rep.FellBack {
				t.Fatalf("ran %s (fellBack=%v), want the %s route", rep.ScenarioRoute, rep.FellBack, tc.route)
			}
			env := plan.ScenarioDiskEnvelope(m.scenarioShape(), tc.spec.ScenarioQuery())
			if foot := m.Array().DiskFootprint(); foot > env || env == 0 {
				t.Fatalf("footprint %d keys exceeds the %s envelope %d", foot, tc.name, env)
			}
		})
	}
}
