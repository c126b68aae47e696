package pdm_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestSortsReuseArenaScratch runs each algorithm twice on one array at
// M = 64Ki and two workers — the geometry of the bench machine — at each
// pipeline depth the facade offers, 0/0, 1/1, 2/2, 4/1 and 4/4, and checks
// that the second run allocates no key through the arena: its loads, the
// kernel's scratch, whose borrows vary in length (merge tails) and run two
// at a time (pass 2's groups under For), and the streaming rings, whose
// sizes vary with the depths, all come back out of what the first run
// freed.  One stray memory load would be 512 KiB per sort.  The first run
// must sort, and the second must give the first run's output, I/O counts
// and trace: a caller that reads a buffer after freeing it would see it
// reused and change one of them.  Traces are compared with their rows: the
// block allocator gives a freed tail back, so once the first run has freed
// its stripes the second lands every block where the first did.
func TestSortsReuseArenaScratch(t *testing.T) {
	for _, alg := range []core.Alg{core.AlgOne, core.AlgMesh3, core.AlgLMM3, core.AlgExp2,
		core.AlgExp3, core.AlgSeven, core.AlgSix, core.AlgSevenMesh, core.AlgRadix} {
		t.Run(alg.String(), func(t *testing.T) {
			for _, depth := range warmDepths {
				t.Run(fmt.Sprintf("%d-%d", depth.Prefetch, depth.WriteBehind), func(t *testing.T) {
					sortTwice(t, alg, depth)
				})
			}
		})
	}
}

// warmDepths are the pipeline depths the warm-run tests cover.
var warmDepths = []pdm.PipelineConfig{{}, {Prefetch: 1, WriteBehind: 1},
	{Prefetch: 2, WriteBehind: 2}, {Prefetch: 4, WriteBehind: 1}, {Prefetch: 4, WriteBehind: 4}}

// sortTwice is one case of TestSortsReuseArenaScratch.
func sortTwice(t *testing.T, alg core.Alg, depth pdm.PipelineConfig) {
	const mem = 1 << 16
	a, err := pdm.New(pdm.Config{D: 64, B: 256, Mem: mem, Workers: 2, Pipeline: depth})
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
	keys := workload.Uniform(n, 0, 1<<30, 9)
	if err := in.Load(keys); err != nil {
		t.Fatal(err)
	}
	type run struct {
		out   []int64
		res   core.Result
		trace []pdm.TraceOp
		made  int
	}
	sort := func() run {
		t.Helper()
		made := pdm.MadeKeys(a.Arena())
		a.EnableTrace()
		defer a.DisableTrace()
		var res *core.Result
		if alg == core.AlgRadix {
			res, err = core.RadixSort(a, in, 1<<30)
		} else {
			res, err = alg.Run(a, in)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer res.Out.Free()
		trace, made := a.Trace(), pdm.MadeKeys(a.Arena())-made
		out, err := res.Out.Unload()
		if err != nil {
			t.Fatal(err)
		}
		r := run{out: out, res: *res, trace: trace, made: made}
		// Pipeline and compute counters depend on scheduling.
		r.res.Out, r.res.IO = nil, pdm.Stats{BlocksRead: res.IO.BlocksRead,
			BlocksWritten: res.IO.BlocksWritten, ReadSteps: res.IO.ReadSteps, WriteSteps: res.IO.WriteSteps}
		return r
	}
	first := sort()
	if !slices.Equal(first.out, slices.Sorted(slices.Values(keys))) {
		t.Fatal("the first sort's output is not the sorted input")
	}
	second := sort()
	if second.made != 0 || a.Arena().Refused() != 0 {
		t.Fatalf("the second sort allocated %d keys through the arena (want 0), %d reservations refused",
			second.made, a.Arena().Refused())
	}
	if !slices.Equal(first.out, second.out) || first.res != second.res ||
		!pdm.TracesEqual(first.trace, second.trace) {
		t.Fatalf("the second sort differs from the first: same output %v, result %+v vs %+v, same trace %v",
			slices.Equal(first.out, second.out), first.res, second.res, pdm.TracesEqual(first.trace, second.trace))
	}
}
