package pdm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestSortsReuseArenaScratch runs each algorithm twice on one array at
// M = 64Ki, two workers and pipeline depth 2/2 — the geometry of the bench
// machine — and checks that the second run allocates no buffer through
// the arena's Take: the kernel's scratch, whose borrows vary in length
// (merge tails) and run two at a time (pass 2's groups under For), and the
// streaming rings all come back out of what the first run recycled.  One
// stray memory load would be 512 KiB per sort.
func TestSortsReuseArenaScratch(t *testing.T) {
	const mem = 1 << 16
	for _, alg := range []core.Alg{core.AlgOne, core.AlgMesh3, core.AlgLMM3, core.AlgExp2,
		core.AlgExp3, core.AlgSeven, core.AlgSix, core.AlgSevenMesh, core.AlgRadix} {
		t.Run(alg.String(), func(t *testing.T) {
			a, err := pdm.New(pdm.Config{D: 64, B: 256, Mem: mem, Workers: 2,
				Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
			if err != nil {
				t.Fatal(err)
			}
			n := 4 * mem
			if alg == core.AlgOne {
				n = mem
			}
			in, err := a.NewStripe(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Load(workload.Uniform(n, 0, 1<<30, 9)); err != nil {
				t.Fatal(err)
			}
			sort := func() {
				t.Helper()
				var res *core.Result
				if alg == core.AlgRadix {
					res, err = core.RadixSort(a, in, 1<<30)
				} else {
					res, err = alg.Run(a, in)
				}
				if err != nil {
					t.Fatal(err)
				}
				res.Out.Free()
			}
			sort()
			made := pdm.MadeKeys(a.Arena())
			sort()
			if extra := pdm.MadeKeys(a.Arena()) - made; extra != 0 || a.Arena().Refused() != 0 {
				t.Fatalf("the second sort allocated %d keys through Take (want 0), %d reservations refused",
					extra, a.Arena().Refused())
			}
		})
	}
}
