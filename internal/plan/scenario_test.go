package plan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/memsort"
)

// referenceSelectionPlan is the filter-route decision spelled out apart
// from selectionPlan, with the sample and budget it reports left out: the
// route is feasible when the kind's SelectDelta budget fits SelectCap,
// and taken when its one read pass beats the full sort.
func referenceSelectionPlan(shape Shape, q ScenarioQuery) ScenarioPlan {
	p := ScenarioPlan{Kind: q.Kind, Route: RouteFilter}
	stripe := shape.Stripe()
	p.PaddedN = padStripe(q.N, stripe)
	alg, sortRead, _ := fullSortBaseline(shape, Workload{N: q.N})
	p.FullSortAlgorithm, p.FullSortReadPasses = alg, sortRead
	budget, results, v, name := TopKBudget(q.N, q.K), q.K, q.K, "topK"
	if q.Kind == KindQuantile {
		budget, results, v, name = 4*SelectDelta(q.N, q.Rank)+64, 0, q.Rank, "rank"
	}
	if v < 1 || v > q.N {
		p.Reason = fmt.Sprintf("%s = %d outside [1, %d]", name, v, q.N)
		return p
	}
	if c := SelectCap(shape.Mem, stripe); budget > c {
		p.Reason = fmt.Sprintf("window measure %d exceeds survivor capacity %d", budget, c)
		p.Route = RouteFullSort
		return p
	}
	p.Feasible, p.Exact = true, true
	p.ReadSteps = int64(p.PaddedN / stripe)
	p.WriteSteps = int64(memsort.CeilDiv(memsort.CeilDiv(results, shape.B), shape.D))
	p.ReadPasses = float64(p.ReadSteps) * float64(stripe) / float64(p.PaddedN)
	p.WritePasses = float64(p.WriteSteps) * float64(stripe) / float64(p.PaddedN)
	p.UseScenario = alg != "" && p.ReadPasses < p.FullSortReadPasses
	return p
}

// atLeast returns P(X ≥ a) for X ~ Binomial(s, p), summed term by term
// from the probability mass function — the exact tail the planner's
// Chernoff bounds must stay above (P(X ≤ a) is atLeast(s, 1−p, s−a)).
// Called only on tails past the mean, whose terms fall from the first.
func atLeast(s int, p float64, a int) float64 {
	switch {
	case a <= 0 || p >= 1:
		return 1
	case a > s || p <= 0:
		return 0
	}
	lgs, _ := math.Lgamma(float64(s + 1))
	sum := 0.0
	for i := a; i <= s; i++ {
		lgi, _ := math.Lgamma(float64(i + 1))
		lgr, _ := math.Lgamma(float64(s - i + 1))
		t := math.Exp(lgs - lgi - lgr + float64(i)*math.Log(p) + float64(s-i)*math.Log1p(-p))
		sum += t
		if t <= sum*1e-18 {
			break
		}
	}
	return sum
}

// TestSelectionDrawGrid checks the planner's selection sample over a grid
// of shapes (M ∈ {1024, 4096, 65536}, three disk counts each), input
// sizes, K and ranks:
//   - the draw is at most SelectSample(n) keys, and the plan reports it
//     as Sample, with SelectCap as the Budget;
//   - every other plan field — Feasible, UseScenario, the route, the
//     steps — is the SelectDelta rule's, so no route decision moves;
//   - the edges' rank bands keep the answer inside the window and at
//     most SelectCap survivors;
//   - where the bound meets M^−α, the exact binomial tails behind it do
//     too, and one draw fewer would not meet it; where it does not, the
//     draw is SelectSample(n) keys, exact when that is the whole input.
//
// At topk-file's shape (n = 4Mi, K = 100, M = 64Ki, D = 64) the draw is
// at most 4,096 keys.
func TestSelectionDrawGrid(t *testing.T) {
	met, unmet := 0, 0
	for _, mem := range []int{1024, 4096, 65536} {
		b := isqrt(mem)
		for _, d := range []int{b / 16, b / 4, b / 2} {
			shape := Shape{Mem: mem, B: b, D: d, Alpha: 1}
			capKeys := SelectCap(mem, shape.Stripe())
			target := 1 / float64(mem)
			for _, n := range []int{3000, 50000, 1 << 20, 4 << 20} {
				var queries []ScenarioQuery
				for _, k := range []int{1, 100, 1000, capKeys / 2} {
					if k <= n {
						queries = append(queries, ScenarioQuery{Kind: KindTopK, N: n, K: k})
					}
				}
				for _, r := range []int{1, 2, n / 100, n / 2, n - 1, n} {
					queries = append(queries, ScenarioQuery{Kind: KindQuantile, N: n, Rank: r})
				}
				for _, q := range queries {
					name := fmt.Sprintf("M=%d D=%d %+v", mem, d, q)
					p, err := Scenario(shape, q)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					dr := SelectionDraw(shape, q)
					if dr.S < 1 || dr.S > SelectSample(n) || p.Sample != dr.S || p.Budget != capKeys {
						t.Fatalf("%s: draw %+v, plan sample %d budget %d; want 1 ≤ S ≤ %d and budget %d",
							name, dr, p.Sample, p.Budget, SelectSample(n), capKeys)
					}
					p.Sample, p.Budget = 0, 0
					if want := referenceSelectionPlan(shape, q); p != want {
						t.Fatalf("%s: plan %+v, the SelectDelta rule gives %+v", name, p, want)
					}
					if q.Kind == KindTopK && q.K > capKeys {
						continue // no band to land in; the plan is infeasible
					}
					bs := selectBands(capKeys, q)
					checkBands(t, name, bs, q, capKeys)
					if dr.Miss > target {
						unmet++
						if dr.S != SelectSample(n) {
							t.Fatalf("%s: unmet bound %.3g with %d draws, want SelectSample = %d", name, dr.Miss, dr.S, SelectSample(n))
						}
						continue
					}
					met++
					if dr.S >= n {
						if dr.Miss != 0 {
							t.Fatalf("%s: the exact draw %+v bounds a miss", name, dr)
						}
						continue
					}
					exact := 0.0
					for _, e := range []struct {
						bd  band
						idx int
					}{{bs.lo, dr.Lo}, {bs.hi, dr.Hi}} {
						if e.bd.open != (e.idx < 0) {
							t.Fatalf("%s: draw %+v does not match the bands %+v", name, dr, bs)
						}
						if !e.bd.open {
							exact += atLeast(dr.S, float64(e.bd.a)/float64(n), e.idx+1) +
								atLeast(dr.S, 1-float64(e.bd.b)/float64(n), dr.S-e.idx)
						}
					}
					if exact > dr.Miss*(1+1e-9) || dr.Miss > target {
						t.Fatalf("%s: draw %+v: exact miss %.3g, bound %.3g, target %.3g", name, dr, exact, dr.Miss, target)
					}
					if dr.S > 1 && bs.draw(dr.S-1, n).Miss <= target {
						t.Fatalf("%s: %d draws meet the bound too, the plan draws %d", name, dr.S-1, dr.S)
					}
					if mem == 65536 && d == 64 && n == 4<<20 && q.Kind == KindTopK && q.K == 100 {
						t.Logf("%s: %+v, exact miss %.3g", name, dr, exact)
						if dr.S > 4096 {
							t.Fatalf("%s: draws %d keys, want at most 4096", name, dr.S)
						}
					}
				}
			}
		}
	}
	t.Logf("%d draws meet M^−α, %d fall back to SelectSample", met, unmet)
}

// checkBands holds a selection's edge bands to what the window needs:
// each band's rank range keeps the answer inside the window, the two
// together keep at most capKeys survivors, and only an edge whose band
// reaches the end of the input is open.
func checkBands(t *testing.T, name string, bs bands, q ScenarioQuery, capKeys int) {
	t.Helper()
	n := q.N
	if q.Kind == KindTopK {
		if !bs.lo.open || bs.hi.a != q.K-1 || bs.hi.b != capKeys || bs.hi.open != (capKeys >= n) {
			t.Fatalf("%s: bands %+v", name, bs)
		}
		return
	}
	r := q.Rank
	lo, hi := 1, n // the survivors' rank range
	if !bs.lo.open {
		lo = bs.lo.a + 1
		if bs.lo.b != r || lo < 2 {
			t.Fatalf("%s: lower band %+v", name, bs.lo)
		}
	}
	if !bs.hi.open {
		hi = bs.hi.b
		if bs.hi.a != r-1 || hi >= n {
			t.Fatalf("%s: upper band %+v", name, bs.hi)
		}
	}
	if hi-lo+1 > capKeys {
		t.Fatalf("%s: bands %+v keep ranks [%d, %d], over the capacity %d", name, bs, lo, hi, capKeys)
	}
}
