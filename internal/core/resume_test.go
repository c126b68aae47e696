package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pdm"
)

// errStopAfterPass aborts a run from inside the checkpointer, freezing
// the disks exactly at a pass boundary — the in-process stand-in for a
// crash that happened right after the manifest was journaled.
var errStopAfterPass = errors.New("stop after pass")

type resumeAlg struct {
	name string
	run  func(*pdm.Array, *pdm.Stripe) (*Result, error)
}

func resumeAlgs() []resumeAlg {
	return []resumeAlg{
		{"lmm3", ThreePass2},
		{"mesh3", ThreePass1},
	}
}

// TestResumeBitIdentical interrupts a three-pass sort after each
// completed pass, resumes it on a fresh array over the same disk files,
// and checks the output and the cumulative deterministic statistics are
// bit-identical to an uninterrupted control run.
func TestResumeBitIdentical(t *testing.T) {
	cfg := pdm.Config{D: 4, B: 32, Mem: 1024}
	n := 4 * cfg.Mem
	rng := rand.New(rand.NewSource(42))
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63n(1 << 40)
	}

	for _, alg := range resumeAlgs() {
		t.Run(alg.name, func(t *testing.T) {
			// Control: uninterrupted run.
			ctrl, err := pdm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			in, err := ctrl.NewStripe(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Load(data); err != nil {
				t.Fatal(err)
			}
			want, err := alg.run(ctrl, in)
			if err != nil {
				t.Fatal(err)
			}
			wantOut, err := want.Out.Unload()
			if err != nil {
				t.Fatal(err)
			}

			for stopAfter := 1; stopAfter <= 2; stopAfter++ {
				// Interrupted run on file disks: the checkpointer
				// captures each manifest and kills the run right after
				// pass stopAfter completes.
				dir := t.TempDir()
				a, err := pdm.NewFileArray(cfg, dir)
				if err != nil {
					t.Fatal(err)
				}
				var last *pdm.Checkpoint
				a.SetCheckpointer(func(cp pdm.Checkpoint) error {
					c := cp
					last = &c
					if cp.Pass >= stopAfter {
						return errStopAfterPass
					}
					return nil
				})
				ain, err := a.NewStripe(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := ain.Load(data); err != nil {
					t.Fatal(err)
				}
				if _, err := alg.run(a, ain); !errors.Is(err, errStopAfterPass) {
					t.Fatalf("interrupted run: err = %v, want errStopAfterPass", err)
				}
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				if last == nil || last.Pass != stopAfter {
					t.Fatalf("last manifest: %+v, want pass %d", last, stopAfter)
				}

				// Resume on a fresh array over the surviving files.
				disks, err := pdm.OpenFileDisks(dir, cfg.D, cfg.B)
				if err != nil {
					t.Fatal(err)
				}
				b, err := pdm.NewWithDisks(cfg, disks)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				bin, err := b.NewStripe(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := bin.Load(data); err != nil {
					t.Fatal(err)
				}
				b.SetResume(last)
				got, err := alg.run(b, bin)
				if err != nil {
					t.Fatalf("resumed run (after pass %d): %v", stopAfter, err)
				}
				if !b.ResumeConsumed() {
					t.Fatalf("resume point not consumed (after pass %d)", stopAfter)
				}
				gotOut, err := got.Out.Unload()
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantOut {
					if gotOut[i] != wantOut[i] {
						t.Fatalf("after pass %d: output[%d] = %d, want %d", stopAfter, i, gotOut[i], wantOut[i])
					}
				}
				// Cumulative deterministic stats must be bit-identical.
				if got.IO.BlocksRead != want.IO.BlocksRead ||
					got.IO.BlocksWritten != want.IO.BlocksWritten ||
					got.IO.ReadSteps != want.IO.ReadSteps ||
					got.IO.WriteSteps != want.IO.WriteSteps {
					t.Fatalf("after pass %d: resumed IO %+v != control %+v", stopAfter, got.IO, want.IO)
				}
				if got.Passes != want.Passes || got.ReadPasses != want.ReadPasses || got.WritePasses != want.WritePasses {
					t.Fatalf("after pass %d: resumed passes %v/%v/%v != control %v/%v/%v",
						stopAfter, got.ReadPasses, got.WritePasses, got.Passes,
						want.ReadPasses, want.WritePasses, want.Passes)
				}
				// The resumed run's footprint matches too: the restored
				// allocator places everything where the control did.
				if bf, cf := b.DiskFootprint(), ctrl.DiskFootprint(); bf != cf {
					t.Fatalf("after pass %d: footprint %d != control %d", stopAfter, bf, cf)
				}
			}
		})
	}
}

// TestResumeInvalidManifest checks that a manifest lying about its
// stripes fails cleanly (the scheduler's restart-from-input trigger).
func TestResumeInvalidManifest(t *testing.T) {
	cfg := pdm.Config{D: 4, B: 32, Mem: 1024}
	n := 4 * cfg.Mem
	a, err := pdm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	in, err := a.NewStripe(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, n)
	if err := in.Load(data); err != nil {
		t.Fatal(err)
	}
	a.SetResume(&pdm.Checkpoint{Alg: "lmm3", Pass: 1, N: n,
		Alloc: pdm.AllocState{Next: 2},
		Stripes: map[string][]pdm.StripeRef{
			"runs": {{Row0: 100, Skew: 0, Keys: cfg.Mem}},
		}})
	if _, err := ThreePass2(a, in); !errors.Is(err, ErrResumeInvalid) {
		t.Fatalf("resume with bogus manifest: %v, want ErrResumeInvalid", err)
	}
}
