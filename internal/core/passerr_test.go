package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/pdm"
)

// cancelDisk cancels the array's bound context at an armed block write.
type cancelDisk struct {
	pdm.Disk
	left   *int // block writes until the cancel; 0 disarms
	cancel func()
}

func (d cancelDisk) WriteBlock(off int, src []int64) error {
	if *d.left > 0 {
		if *d.left--; *d.left == 0 {
			d.cancel()
		}
	}
	return d.Disk.WriteBlock(off, src)
}

// TestPassErrorFreesScratch cancels a sort in the middle of one of its
// passes: run formation (ExpectedTwoPass, ThreePass2, the multiway merge
// baseline) and the merge pass (ThreePass2).  The error must surface, the
// arena must drain, and a rerun must fit in the disk rows an uninterrupted
// run used, so the canceled pass kept none of the stripes it had written.
func TestPassErrorFreesScratch(t *testing.T) {
	const m, d = 256, 4 // 16 blocks per memory load
	cases := []struct {
		name string
		at   int // block write that cancels
		run  func(*pdm.Array, *pdm.Stripe) (*core.Result, error)
	}{
		{"exp2/runs", 20, core.ExpectedTwoPass},
		{"lmm3/runs", 20, core.ThreePass2},
		{"lmm3/merge", 80, core.ThreePass2},
		{"multiway/runs", 40, baseline.MultiwayMergeSort},
	}
	for _, tc := range cases {
		for _, pipe := range []pdm.PipelineConfig{{}, {Prefetch: 2, WriteBehind: 2}} {
			t.Run(fmt.Sprintf("%s/%+v", tc.name, pipe), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				left := new(int)
				disks := pdm.NewMemDisks(d, 16)
				for i := range disks {
					disks[i] = cancelDisk{Disk: disks[i], left: left, cancel: cancel}
				}
				a, err := pdm.NewWithDisks(pdm.Config{D: d, B: 16, Mem: m, Pipeline: pipe}, disks)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				in, err := a.NewStripe(4 * m)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.Load(perm(4 * m)); err != nil {
					t.Fatal(err)
				}
				rerun := func() {
					t.Helper()
					res, err := tc.run(a, in)
					if err != nil {
						t.Fatal(err)
					}
					res.Out.Free()
				}
				rerun()
				foot := a.DiskFootprint()

				*left = tc.at
				a.BindContext(ctx)
				if _, err := tc.run(a, in); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v after a mid-pass cancel, want context.Canceled", err)
				}
				if leak := a.Arena().InUse(); leak != 0 {
					t.Errorf("canceled run left %d arena keys", leak)
				}
				a.BindContext(nil)
				rerun()
				if again := a.DiskFootprint(); again != foot {
					t.Errorf("canceled run kept scratch stripes: footprint %d → %d", foot, again)
				}
			})
		}
	}
}
