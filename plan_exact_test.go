package repro

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/memsort"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestPlanExactnessProperty is the planner's accountability test: over
// randomized machine shapes and input sizes, every feasible candidate is
// forced.  Where plan.ExactPasses claims a step-exact prediction, the run
// must measure exactly the predicted read and write passes; elsewhere the
// row's Passes are a floor the run must reach.  Runs where a probabilistic
// algorithm detected a bad sample and fell back are excluded — the
// contract covers non-fallback runs only — but a prediction that is merely
// close is a planner bug, not noise.  Fixed draws add ThreePass1 at run
// counts l = N/M that divide neither D nor √M, where it is priced at
// ThreePass2's count: the floor keeps the tie that ranks lmm3 first from
// hiding a cheaper mesh3.
func TestPlanExactnessProperty(t *testing.T) {
	algs := []Algorithm{
		MemOnePass, ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh,
	}
	type shapeCase struct{ mem, d int }
	var shapes []shapeCase
	for _, mem := range []int{256, 1024, 4096} {
		for d := 1; d*d <= mem; d *= 2 {
			shapes = append(shapes, shapeCase{mem, d})
		}
	}
	type draw struct {
		shapeCase
		n    int
		seed int64
	}
	var draws []draw
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 30; i++ {
		sc := shapes[rng.Intn(len(shapes))]
		draws = append(draws, draw{sc, 1 + rng.Intn(16*sc.mem), int64(100 + i)})
	}
	for _, sc := range []shapeCase{{256, 4}, {1024, 8}, {4096, 16}} {
		for _, l := range []int{3, 5, 9, 13} {
			if l*l <= sc.mem {
				draws = append(draws, draw{sc, l * sc.mem, int64(l)})
			}
		}
	}
	exactRuns := map[Algorithm]int{}
	floorRuns := 0
	offDivisorLMM := 0 // lmm3 exact runs at an l = N/M that does not divide √M
	for _, dr := range draws {
		keys := workload.Uniform(dr.n, -1<<40, 1<<40, dr.seed)
		shape := planShape(dr.mem, dr.d, 1)
		w := plan.Workload{N: dr.n}
		report, err := plan.Explain(shape, w, plan.DefaultCalibration(shape))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			c := report.Candidate(alg)
			if !c.Feasible {
				continue
			}
			read, write, exact := plan.ExactPasses(shape, w, alg)
			if !exact {
				read, write, _ = alg.Rules().Passes(dr.mem, dr.d, dr.n, c.PaddedN, 0)
			}
			m, err := NewMachine(MachineConfig{Memory: dr.mem, Disks: dr.d})
			if err != nil {
				t.Fatal(err)
			}
			cp := append([]int64(nil), keys...)
			rep, err := m.Sort(cp, alg)
			m.Close()
			if err != nil {
				// The candidate passed the planner's feasibility gate, so
				// the machine must accept it.
				t.Fatalf("mem=%d d=%d n=%d %s: plan feasible but sort refused: %v",
					dr.mem, dr.d, dr.n, alg, err)
			}
			if !slices.IsSorted(cp) {
				t.Fatalf("mem=%d d=%d n=%d %s: output not sorted", dr.mem, dr.d, dr.n, alg)
			}
			if rep.FellBack {
				continue
			}
			if !exact {
				if rep.ReadPasses < read || rep.WritePasses < write {
					t.Errorf("mem=%d d=%d n=%d %s: measured %.6f/%.6f passes, below the predicted floor %.6f/%.6f",
						dr.mem, dr.d, dr.n, alg, rep.ReadPasses, rep.WritePasses, read, write)
				}
				floorRuns++
				continue
			}
			if rep.ReadPasses != read || rep.WritePasses != write {
				t.Errorf("mem=%d d=%d n=%d %s: measured %.6f/%.6f passes, predicted %.6f/%.6f",
					dr.mem, dr.d, dr.n, alg, rep.ReadPasses, rep.WritePasses, read, write)
			}
			exactRuns[alg]++
			if l := memsort.CeilDiv(dr.n, dr.mem); alg == ThreePassLMM && memsort.Isqrt(dr.mem)%l != 0 {
				offDivisorLMM++
			}
		}
	}
	// The property is vacuous if the random walk never hits exact
	// geometries: demand broad coverage across the candidate set, and
	// floors checked too.
	covered := 0
	for _, alg := range algs {
		if exactRuns[alg] > 0 {
			covered++
		}
	}
	if covered < 5 {
		t.Fatalf("only %d algorithms hit an exact geometry (runs: %v)", covered, exactRuns)
	}
	if floorRuns == 0 {
		t.Fatal("no non-exact run checked its floor")
	}
	// lmm3 is exact at every l; keep the off-divisor branch covered.
	if offDivisorLMM == 0 {
		t.Fatal("no lmm3 exact run landed at an l that does not divide √M")
	}
	t.Logf("%d exact runs %v, %d floor runs", len(exactRuns), exactRuns, floorRuns)
}

// TestMesh3PricedAtLMM3Floor backs the planner's pricing of ThreePass1 at
// ThreePass2's exact count: at run counts l = N/M that divide neither D
// nor √M, forced ThreePass1 never measures fewer passes than that price,
// so the tie that keeps lmm3 ahead of mesh3 never hides a cheaper mesh3.
func TestMesh3PricedAtLMM3Floor(t *testing.T) {
	for _, sc := range []struct{ mem, d int }{{256, 4}, {1024, 8}, {4096, 16}} {
		shape := planShape(sc.mem, sc.d, 1)
		for _, l := range []int{3, 5, 9, 13} {
			if l*l > sc.mem {
				continue
			}
			n := l * sc.mem
			rep, err := plan.Explain(shape, plan.Workload{N: n}, plan.DefaultCalibration(shape))
			if err != nil {
				t.Fatal(err)
			}
			price := rep.Candidate(ThreePassMesh).ReadPasses
			m, err := NewMachine(MachineConfig{Memory: sc.mem, Disks: sc.d})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Sort(workload.Uniform(n, -1<<40, 1<<40, int64(l)), ThreePassMesh)
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got.Passes < price {
				t.Errorf("mem=%d d=%d l=%d: mesh3 measured %.6f passes, priced %.6f", sc.mem, sc.d, l, got.Passes, price)
			}
		}
	}
}
