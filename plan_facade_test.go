package repro

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestAutoOnePassRegression pins the planner's headline fix: an input
// that fits in internal memory used to run ThreePass2 degenerately on one
// run — three read passes where one suffices.  Auto must now run the
// single load-sort-store.
func TestAutoOnePassRegression(t *testing.T) {
	m := newTestMachine(t, 1024)
	keys := workload.Perm(768, 7)
	rep, err := m.Sort(keys, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != MemOnePass {
		t.Fatalf("Auto ran %v for an in-memory input, want the one-pass sort", rep.Algorithm)
	}
	if rep.ReadPasses > 1.01 || rep.WritePasses > 1.01 {
		t.Fatalf("one-pass sort measured %.3f read / %.3f write passes", rep.ReadPasses, rep.WritePasses)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatal("not sorted")
		}
	}
}

// TestAutoPaddingRegression pins the second fix: ExpectedTwoPass's run
// count must divide √M, so 5M keys pad to 8M — its two passes then move
// more words than ThreePass2's three passes over the snug 5M padding.
// The capacity-threshold planner chose exp2 anyway; the cost model must
// not.
func TestAutoPaddingRegression(t *testing.T) {
	mem := 4096
	m := newTestMachine(t, mem)
	if got := m.Plan(5 * mem); got != ThreePassLMM {
		t.Fatalf("Plan(5M) = %v, want ThreePass2 (exp2 pads 5M to 8M)", got)
	}
	if got := m.Plan(8 * mem); got != TwoPassExpected {
		t.Fatalf("Plan(8M) = %v, want ExpectedTwoPass", got)
	}
	r, err := m.Explain(SortSpec{N: 5 * mem})
	if err != nil {
		t.Fatal(err)
	}
	if r.Chosen != "lmm3" || r.ChosenAlgorithm != ThreePassLMM {
		t.Fatalf("Explain chose %q (%v)", r.Chosen, r.ChosenAlgorithm)
	}
	c := r.Candidate("exp2")
	if c == nil || !c.Feasible || c.PaddedN != 8*mem {
		t.Fatalf("exp2 candidate = %+v, want feasible with PaddedN = 8M", c)
	}
	if lmm := r.Candidate("lmm3"); lmm.IOWords >= c.IOWords {
		t.Fatalf("ranking reason missing: lmm3 words %d vs exp2 words %d", lmm.IOWords, c.IOWords)
	}
}

// explainRegime is one (N, payload, latency) acceptance regime: the
// chosen algorithm must be the measured-cheapest among the distinct-cost
// top candidates on latency-modeled file disks, and the calibrated
// prediction must land within bounds of the measured wall.
type explainRegime struct {
	name     string
	mem      int
	n        int
	payload  int // payload bytes per record (0 = bare keys)
	latency  time.Duration
	wantAlg  Algorithm
	wantName string
}

// TestExplainMatchesMeasuredOnLatencyDisks is the acceptance criterion:
// three distinct (N, payload, latency) regimes on latency-modeled
// file-backed disks; in each, Explain's chosen algorithm must actually
// charge the fewest latency-bearing I/O steps when the top-ranked
// candidates are run for real, and its predicted wall time must be within
// a factor-of-two band of the measurement.
func TestExplainMatchesMeasuredOnLatencyDisks(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-modeled regimes sleep for real milliseconds")
	}
	regimes := []explainRegime{
		{name: "in-memory/4ms", mem: 1024, n: 768, latency: 4 * time.Millisecond,
			wantAlg: MemOnePass, wantName: "one"},
		{name: "two-pass/2ms", mem: 1024, n: 2048, latency: 2 * time.Millisecond,
			wantAlg: TwoPassExpected, wantName: "exp2"},
		{name: "records/2ms", mem: 1024, n: 1024, payload: 16, latency: 2 * time.Millisecond,
			wantAlg: MemOnePass, wantName: "one"},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			machineFor := func() *Machine {
				m, err := NewMachine(MachineConfig{
					Memory:       rg.mem,
					Dir:          t.TempDir(),
					BlockLatency: rg.latency,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m := machineFor()
			defer m.Close()
			report, err := m.Explain(SortSpec{N: rg.n, PayloadBytes: rg.payload})
			if err != nil {
				t.Fatal(err)
			}
			if report.Chosen != rg.wantName || report.ChosenAlgorithm != rg.wantAlg {
				t.Fatalf("chosen = %q (%v), want %q", report.Chosen, report.ChosenAlgorithm, rg.wantName)
			}

			// Run the chosen candidate and the next-ranked candidates with
			// strictly costlier predictions; chosen must measure cheapest.
			// The measure is what a LatencyDisk sleeps on — the charged
			// parallel I/O steps, one modeled latency each — which, unlike
			// the wall clock around them, is deterministic: the rivals here
			// sit as little as 8 steps (16 ms in ~210) above the choice.
			run := func(alg Algorithm) (steps int64, wall time.Duration) {
				mm := machineFor()
				defer mm.Close()
				keys := workload.Perm(rg.n, 11)
				var rep *Report
				t0 := time.Now()
				if rg.payload > 0 {
					payloads := (&PayloadSpec{MinBytes: rg.payload, MaxBytes: rg.payload}).Materialize(rg.n, 3)
					rep, err = mm.SortRecords(keys, payloads, alg)
				} else {
					rep, err = mm.Sort(keys, alg)
				}
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				return rep.IO.ReadSteps + rep.IO.WriteSteps, time.Since(t0)
			}
			chosenCand := report.Candidate(report.Chosen)
			chosenSteps, chosenWall := run(rg.wantAlg)
			rivals := 0
			for _, c := range report.Candidates {
				if !c.Feasible || c.Algorithm == report.ChosenAlgorithm || rivals == 2 {
					continue
				}
				// Skip analytic ties (e.g. mesh3 vs lmm3): they are
				// interchangeable by construction and measure equal.
				if c.IOWords == chosenCand.IOWords {
					continue
				}
				if c.Algorithm == "radix" {
					continue // the radix row has no comparison entry point
				}
				rivals++
				if rivalSteps, _ := run(c.Algorithm); rivalSteps <= chosenSteps {
					t.Errorf("rival %s charged %d steps, chosen %s charged %d — chosen is not cheapest",
						c.Algorithm, rivalSteps, report.Chosen, chosenSteps)
				}
			}
			if rivals == 0 {
				t.Fatal("no distinct-cost rival measured; regime too degenerate to prove the choice")
			}

			// Prediction-error bound: the calibrated wall prediction must
			// land within [measured/2, measured*2] — sleep-dominated I/O is
			// the dominant, modeled term.  Best of three walls, so one
			// descheduled run on a loaded box does not widen the measurement.
			for i := 0; i < 2; i++ {
				if _, wall := run(rg.wantAlg); wall < chosenWall {
					chosenWall = wall
				}
			}
			if chosenCand.Seconds < chosenWall.Seconds()/2 || chosenCand.Seconds > 2*chosenWall.Seconds() {
				t.Errorf("predicted %.3fs vs measured %.3fs: outside the factor-2 band",
					chosenCand.Seconds, chosenWall.Seconds())
			}
		})
	}
}

// TestExplainChosenMatchesAutoRun pins the dry-run contract: whatever the
// calibrated ranking prefers, Explain's Chosen must name the algorithm
// Sort(keys, Auto) actually runs on the same machine.  The (M=4096,
// N=3M, 2ms file latency) point is a known margin case where the
// calibrated table ranks lmm3 above exp2 while Auto's fixed-calibration
// choice is exp2 — the report must side with reality.
func TestExplainChosenMatchesAutoRun(t *testing.T) {
	mem := 4096
	m, err := NewMachine(MachineConfig{
		Memory:       mem,
		Dir:          t.TempDir(),
		BlockLatency: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, n := range []int{512, 3 * mem, 5 * mem, 20 * mem} {
		rep, err := m.Explain(SortSpec{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Plan(n); rep.ChosenAlgorithm != got {
			t.Errorf("N=%d: Explain chose %v but Auto runs %v", n, rep.ChosenAlgorithm, got)
		}
		if c := rep.Candidate(rep.Chosen); c == nil || !c.Feasible {
			t.Errorf("N=%d: chosen %q not a feasible candidate in the table", n, rep.Chosen)
		}
	}
}
