package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestThreePass2ExactAtEveryL is ThreePass2's exactness battery: at every
// l = N/M ≤ √M on three small geometries, and at two off-divisor l on the
// bench geometry, run formation and the shuffle cleanup take exactly one
// pass each (measured between the checkpointer's pass boundaries), the
// total equals plan.ExactPasses to the last bit, and the output is sorted.
func TestThreePass2ExactAtEveryL(t *testing.T) {
	type tcase struct{ mem, d, l int }
	var cases []tcase
	for _, g := range []struct{ mem, d int }{{256, 4}, {1024, 8}, {4096, 16}} {
		for l := 1; l*l <= g.mem; l++ {
			cases = append(cases, tcase{g.mem, g.d, l})
		}
	}
	cases = append(cases, tcase{65536, 64, 3}, tcase{65536, 64, 17})
	for _, c := range cases {
		t.Run(fmt.Sprintf("M=%d/D=%d/l=%d", c.mem, c.d, c.l), func(t *testing.T) {
			sq := memsort.Isqrt(c.mem)
			a, err := pdm.New(pdm.Config{D: c.d, B: sq, Mem: c.mem,
				Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			n := c.l * c.mem
			data := workload.Uniform(n, -1<<40, 1<<40, int64(c.l))
			in, err := a.NewStripe(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Load(data); err != nil {
				t.Fatal(err)
			}
			a.ResetStats()
			var bounds []pdm.Stats
			a.SetCheckpointer(func(cp pdm.Checkpoint) error {
				bounds = append(bounds, cp.Stats)
				return nil
			})
			res, err := core.ThreePass2(a, in)
			if err != nil {
				t.Fatal(err)
			}
			if len(bounds) != 2 {
				t.Fatalf("%d pass boundaries, want 2", len(bounds))
			}
			dxb := a.StripeWidth()
			for _, p := range []struct {
				name string
				io   pdm.Stats
			}{{"pass 1", bounds[0]}, {"pass 3", res.IO.Sub(bounds[1])}} {
				if r, w := p.io.ReadPasses(n, dxb), p.io.WritePasses(n, dxb); r != 1 || w != 1 {
					t.Errorf("%s: %.6f read / %.6f write passes, want exactly 1", p.name, r, w)
				}
			}
			read, write, exact := plan.ExactPasses(plan.Shape{Mem: c.mem, B: sq, D: c.d, Alpha: 1},
				plan.Workload{N: n}, plan.LMM3)
			if !exact {
				t.Fatal("plan.ExactPasses(lmm3) is not exact")
			}
			if res.ReadPasses != read || res.WritePasses != write {
				t.Errorf("measured %.6f/%.6f passes, plan.ExactPasses %.6f/%.6f",
					res.ReadPasses, res.WritePasses, read, write)
			}
			got, err := res.Out.Unload()
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(data)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatal("output is not the sorted input")
			}
		})
	}
}
