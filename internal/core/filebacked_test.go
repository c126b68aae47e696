package core

import (
	"testing"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestAllAlgorithmsOnFileDisks runs every algorithm end-to-end against
// real file-backed disks, asserting identical
// results and identical pass accounting to the in-memory backend.
func TestAllAlgorithmsOnFileDisks(t *testing.T) {
	const m = 256
	b := memsort.Isqrt(m)
	cfg := pdm.Config{D: 4, B: b, Mem: m}

	algs := map[string]struct {
		n   int
		run func(*pdm.Array, *pdm.Stripe) (*Result, error)
	}{
		"ThreePass1":        {m * 16, ThreePass1},
		"ThreePass2":        {m * 16, ThreePass2},
		"ExpTwoPassMesh":    {m * 4, ExpTwoPassMesh},
		"ExpectedTwoPass":   {m * 2, ExpectedTwoPass},
		"ExpectedThreePass": {m * 4, ExpectedThreePass},
		"SevenPass":         {m * 16, SevenPass},
		"ExpectedSixPass":   {m * 4, ExpectedSixPass},
		"IntegerSort": {m * 8, func(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
			return IntegerSort(a, in, m/b, true)
		}},
		"RadixSort": {m * 8, func(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
			return RadixSort(a, in, 1<<20)
		}},
	}
	for name, tc := range algs {
		t.Run(name, func(t *testing.T) {
			var data []int64
			switch name {
			case "IntegerSort":
				data = workload.Uniform(tc.n, 0, int64(m/b-1), 7)
			case "RadixSort":
				data = workload.Uniform(tc.n, 0, (1<<20)-1, 7)
			default:
				data = workload.Perm(tc.n, 7)
			}

			// In-memory reference run.
			am, err := pdm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inm := loadInput(t, am, data)
			resm, err := tc.run(am, inm)
			if err != nil {
				t.Fatal(err)
			}

			// File-backed run.
			af, err := pdm.NewFileArray(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer af.Close()
			inf := loadInput(t, af, data)
			resf, err := tc.run(af, inf)
			if err != nil {
				t.Fatal(err)
			}
			verifySorted(t, resf, data)
			if resf.ReadPasses != resm.ReadPasses || resf.WritePasses != resm.WritePasses {
				t.Fatalf("file-backed passes %.3f/%.3f differ from in-memory %.3f/%.3f",
					resf.ReadPasses, resf.WritePasses, resm.ReadPasses, resm.WritePasses)
			}
			if resf.FellBack != resm.FellBack {
				t.Fatal("fallback behaviour differs between backends")
			}
		})
	}
}
