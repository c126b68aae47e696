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
// randomized machine shapes and input sizes, whenever plan.ExactPasses
// claims a step-exact prediction for a candidate, forcing that candidate
// must measure exactly the predicted read and write passes.  Runs where a
// probabilistic algorithm detected a bad sample and fell back are excluded
// — the exactness contract covers non-fallback runs only — but a
// prediction that is merely close is a planner bug, not noise.
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
	rng := rand.New(rand.NewSource(4242))
	exactRuns := map[Algorithm]int{}
	offDivisorLMM := 0 // lmm3 exact runs at an l = N/M that does not divide √M
	for i := 0; i < 30; i++ {
		sc := shapes[rng.Intn(len(shapes))]
		n := 1 + rng.Intn(16*sc.mem)
		keys := workload.Uniform(n, -1<<40, 1<<40, int64(100+i))
		shape := planShape(sc.mem, sc.d, 1)
		for _, alg := range algs {
			read, write, exact := plan.ExactPasses(shape, plan.Workload{N: n}, alg)
			if !exact {
				continue
			}
			m, err := NewMachine(MachineConfig{Memory: sc.mem, Disks: sc.d})
			if err != nil {
				t.Fatal(err)
			}
			cp := append([]int64(nil), keys...)
			rep, err := m.Sort(cp, alg)
			m.Close()
			if err != nil {
				// ExactPasses passed the planner's feasibility gate, so the
				// machine must accept the same candidate.
				t.Fatalf("mem=%d d=%d n=%d %s: plan exact but sort refused: %v",
					sc.mem, sc.d, n, alg, err)
			}
			if !slices.IsSorted(cp) {
				t.Fatalf("mem=%d d=%d n=%d %s: output not sorted", sc.mem, sc.d, n, alg)
			}
			if rep.FellBack {
				continue
			}
			if rep.ReadPasses != read || rep.WritePasses != write {
				t.Errorf("mem=%d d=%d n=%d %s: measured %.6f/%.6f passes, predicted %.6f/%.6f",
					sc.mem, sc.d, n, alg, rep.ReadPasses, rep.WritePasses, read, write)
			}
			exactRuns[alg]++
			if l := memsort.CeilDiv(n, sc.mem); alg == ThreePassLMM && memsort.Isqrt(sc.mem)%l != 0 {
				offDivisorLMM++
			}
		}
	}
	// The property is vacuous if the random walk never hits exact
	// geometries: demand broad coverage across the candidate set.
	covered := 0
	for _, alg := range algs {
		if exactRuns[alg] > 0 {
			covered++
		}
	}
	if covered < 5 {
		t.Fatalf("only %d algorithms hit an exact geometry (runs: %v)", covered, exactRuns)
	}
	// lmm3 is exact at every l; keep the off-divisor branch covered.
	if offDivisorLMM == 0 {
		t.Fatal("no lmm3 exact run landed at an l that does not divide √M")
	}
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
