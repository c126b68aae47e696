package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestPassHookSkipsManifests runs the two checkpointing three-pass sorts
// under a pass hook and under a checkpointer: both see every top-level
// pass boundary, so a drain can stop either, but only the checkpointer's
// boundaries carry the live stripe and view sets and the allocator
// snapshot — under the hook the algorithms build none of them.
func TestPassHookSkipsManifests(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*pdm.Array, *pdm.Stripe) (*core.Result, error)
	}{
		{"lmm3", core.ThreePass2},
		{"mesh3", core.ThreePass1},
	} {
		for _, manifests := range []bool{false, true} {
			a, err := pdm.New(pdm.Config{D: 8, B: 32, Mem: 1024})
			if err != nil {
				t.Fatal(err)
			}
			in, err := a.NewStripe(16 * 1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Load(workload.Uniform(16*1024, 0, 1<<40, 5)); err != nil {
				t.Fatal(err)
			}
			var cps []pdm.Checkpoint
			hook := func(cp pdm.Checkpoint) error {
				cps = append(cps, cp)
				return nil
			}
			if manifests {
				a.SetCheckpointer(hook)
			} else {
				a.SetPassHook(hook)
			}
			if a.Manifests() != manifests {
				t.Fatalf("%s: Manifests() = %v, want %v", tc.name, a.Manifests(), manifests)
			}
			res, err := tc.run(a, in)
			if err != nil {
				t.Fatal(err)
			}
			res.Out.Free()
			if len(cps) != 2 {
				t.Fatalf("%s: %d pass boundaries, want 2", tc.name, len(cps))
			}
			for _, cp := range cps {
				if built := cp.Stripes != nil || cp.Alloc.Next != 0; built != manifests || cp.Pass == 0 || cp.N != 16*1024 {
					t.Fatalf("%s (manifests %v): boundary %+v", tc.name, manifests, cp)
				}
			}
		}
	}
}
