package repro

import (
	"math/rand"
	"slices"
	"testing"

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
}
