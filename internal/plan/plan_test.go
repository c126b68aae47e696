package plan

import (
	"strings"
	"testing"
	"time"
)

// shapeFor is the test machine: M-key memory, B = √M, D = √M/4 (the
// paper's running example C = 4), alpha = 1.
func shapeFor(mem int) Shape {
	b := isqrt(mem)
	d := b / 4
	if d == 0 {
		d = 1
	}
	return Shape{Mem: mem, B: b, D: d, Alpha: 1}
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

func choose(t *testing.T, shape Shape, w Workload) Alg {
	t.Helper()
	alg, err := Choose(shape, w)
	if err != nil {
		t.Fatalf("Choose(%+v): %v", w, err)
	}
	return alg
}

// TestChooseRegimeEdges pins the chosen algorithm at the paper's regime
// boundaries: N ≈ M (one-pass vs two-pass), N ≈ M²/B = M·√M (the
// three-pass capacity), and N ≈ M² (the seven-pass wall).
func TestChooseRegimeEdges(t *testing.T) {
	mem := 1024 // √M = 32, capacity(exp2) = 4·M at alpha 1
	shape := shapeFor(mem)
	sq := 32
	cases := []struct {
		name string
		n    int
		want Alg
	}{
		{"tiny", 1, OnePass},
		{"N=M-1", mem - 1, OnePass},
		{"N=M", mem, OnePass},
		{"N=M+1", mem + 1, Exp2},
		{"N=exp2 capacity", Capacity(mem, 1, Exp2), Exp2},
		{"N just past exp2", Capacity(mem, 1, Exp2) + 1, LMM3},
		{"N=M*sqrtM", mem * sq, LMM3},
		{"N just past M*sqrtM", mem*sq + 1, Seven},
		{"N=M*M", mem * mem, Seven},
	}
	for _, tc := range cases {
		if got := choose(t, shape, Workload{N: tc.n}); got != tc.want {
			t.Errorf("%s: Choose(N=%d) = %s, want %s", tc.name, tc.n, got, tc.want)
		}
	}
	if _, err := Choose(shape, Workload{N: mem*mem + 1}); err == nil {
		t.Error("N past M^2 should have no feasible algorithm")
	}
}

// TestChoosePaddingAware is the planner's reason to exist: between 4M and
// 8M keys on an M = 4096 machine, ExpectedTwoPass must pad to 8M (its run
// count divides √M), so its 2 passes move more words than ThreePass2's 3
// passes over the snug padding — the capacity-threshold planner picked the
// "fewer passes" loser.
func TestChoosePaddingAware(t *testing.T) {
	mem := 4096
	shape := shapeFor(mem)
	if got := choose(t, shape, Workload{N: 5 * mem}); got != LMM3 {
		t.Errorf("Choose(N=5M) = %s, want lmm3 (exp2 pads 5M to 8M)", got)
	}
	// At exactly 8M the padding penalty vanishes and two passes win again.
	if got := choose(t, shape, Workload{N: 8 * mem}); got != Exp2 {
		t.Errorf("Choose(N=8M) = %s, want exp2", got)
	}
	// The candidate table must expose the padding that drove the choice.
	r, err := Explain(shape, Workload{N: 5 * mem}, DefaultCalibration(shape))
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Candidate(Exp2); c == nil || !c.Feasible || c.PaddedN != 8*mem {
		t.Errorf("exp2 candidate = %+v, want feasible with PaddedN = 8M", c)
	}
	if c := r.Candidate(LMM3); c.PaddedN != 5*mem {
		t.Errorf("lmm3 PaddedN = %d, want 5M", c.PaddedN)
	}
}

// TestUniverseRoutesToRadix: a universe hint always chooses the §7 path
// (SortInts and universe-bearing jobs never run a comparison sort), and
// the predicted pass count tracks the scatter depth.
func TestUniverseRoutesToRadix(t *testing.T) {
	shape := shapeFor(1024)
	r, err := Explain(shape, Workload{N: 64 * 1024, Universe: 1 << 20}, DefaultCalibration(shape))
	if err != nil {
		t.Fatal(err)
	}
	if r.Chosen != Radix {
		t.Fatalf("Chosen = %s, want radix", r.Chosen)
	}
	c := r.Candidate(Radix)
	if !c.Feasible || c.ReadPasses < 2 || c.ReadPasses > 5 {
		t.Fatalf("radix candidate = %+v, want feasible with a small pass count", c)
	}
	// Payloads force a comparison sort: radix infeasible, comparison chosen.
	r2, err := Explain(shape, Workload{N: 2048, PayloadWords: 4096}, DefaultCalibration(shape))
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.Candidate(Radix); c.Feasible {
		t.Fatal("radix must be infeasible for payload-bearing workloads")
	}
	if r2.Chosen != Exp2 {
		t.Fatalf("records Chosen = %s, want exp2", r2.Chosen)
	}
	if c := r2.Candidate(Exp2); c.PermutePasses == 0 || c.PermuteLevels < 0 {
		t.Fatalf("records candidate missing permutation model: %+v", c)
	}
}

// TestRankingDeterministicUnderCalibration: the choice must not depend on
// what the probe measured — ranks are monotone in predicted words, so
// scaling any rate preserves the order (Auto stays deterministic across
// worker counts and probe noise).
func TestRankingDeterministicUnderCalibration(t *testing.T) {
	shape := shapeFor(4096)
	shape.BlockLatency = 3 * time.Millisecond
	cals := []Calibration{
		DefaultCalibration(shape),
		{ReadStepSeconds: 1e-3, WriteStepSeconds: 2e-3, SortSecondsPerKey: 1e-9},
		{ReadStepSeconds: 1e-6, WriteStepSeconds: 1e-6, SortSecondsPerKey: 5e-6},
	}
	for _, n := range []int{100, 4096, 5 * 4096, 20 * 4096, 100 * 4096} {
		want := ""
		for i, cal := range cals {
			r, err := Explain(shape, Workload{N: n}, cal)
			if err != nil {
				t.Fatal(err)
			}
			got := string(r.Chosen)
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("N=%d: choice flipped with calibration %d: %s vs %s", n, i, got, want)
			}
		}
	}
}

// TestTieBreakCanonical: ThreePass1 and ThreePass2 predict identically
// (same passes, same padding); the LMM variant must win the tie every
// time, and both mesh variants must rank directly behind their LMM twins.
func TestTieBreakCanonical(t *testing.T) {
	shape := shapeFor(1024)
	r, err := Explain(shape, Workload{N: 20 * 1024}, DefaultCalibration(shape))
	if err != nil {
		t.Fatal(err)
	}
	var order []Alg
	for _, c := range r.Candidates {
		if c.Feasible && (c.Algorithm == LMM3 || c.Algorithm == Mesh3) {
			order = append(order, c.Algorithm)
		}
	}
	if len(order) != 2 || order[0] != LMM3 || order[1] != Mesh3 {
		t.Fatalf("three-pass tie order = %v, want [lmm3 mesh3]", order)
	}
	if r.Chosen != LMM3 {
		t.Fatalf("Chosen = %s, want lmm3", r.Chosen)
	}
}

// TestPadFor covers the geometry rules the model inherits from the
// algorithms, including the one-pass stripe rounding.
func TestPadFor(t *testing.T) {
	mem := 1024
	cases := []struct {
		alg  Alg
		n    int
		want int
	}{
		{OnePass, 1, 32},
		{OnePass, 33, 64},
		{OnePass, 1024, 1024},
		{LMM3, 1500, 2048},
		{Exp2, 3 * 1024, 4 * 1024}, // run count must divide √M
		{Seven, 5 * 1024, 16 * 1024},
		{Radix, 100, 128},
	}
	for _, tc := range cases {
		got, err := PadFor(mem, tc.alg, tc.n)
		if err != nil || got != tc.want {
			t.Errorf("PadFor(%s, %d) = %d, %v; want %d", tc.alg, tc.n, got, err, tc.want)
		}
	}
	if _, err := PadFor(mem, OnePass, mem+1); err == nil {
		t.Error("one-pass PadFor past M must fail")
	}
	if _, err := PadFor(mem, LMM3, mem*32+1); err == nil {
		t.Error("lmm3 PadFor past M·√M must fail")
	}
}

// TestDiskEnvelopeOrdering: the per-algorithm envelopes must be tighter
// than or equal to the old per-family worst cases and ordered by family.
func TestDiskEnvelopeOrdering(t *testing.T) {
	padded, stripe := 1<<16, 1<<10
	one := DiskEnvelope(OnePass, padded, stripe)
	three := DiskEnvelope(LMM3, padded, stripe)
	super := DiskEnvelope(Seven, padded, stripe)
	if !(one < three && three < super) {
		t.Fatalf("envelope ordering broken: one=%d three=%d super=%d", one, three, super)
	}
	if three > 6*padded+2*stripe {
		t.Fatalf("three-pass envelope %d looser than the old family bound", three)
	}
}

// TestCalibrateCachesAndFallsBack: the probe returns positive rates, is
// cached per config, and scales with modeled latency.
func TestCalibrateCachesAndFallsBack(t *testing.T) {
	ResetCalibrationCache()
	pc := ProbeConfig{D: 4, B: 16, Workers: 1}
	cal := Calibrate(pc)
	if !cal.Probed || cal.ReadStepSeconds <= 0 || cal.WriteStepSeconds <= 0 || cal.SortSecondsPerKey <= 0 {
		t.Fatalf("probe calibration = %+v", cal)
	}
	if again := Calibrate(pc); again != cal {
		t.Fatalf("cache miss: %+v vs %+v", again, cal)
	}
	slow := Calibrate(ProbeConfig{D: 4, B: 16, Workers: 1, BlockLatency: 2 * time.Millisecond})
	if slow.ReadStepSeconds < time.Millisecond.Seconds() {
		t.Fatalf("latency-modeled probe read step %.6fs, want >= the modeled latency", slow.ReadStepSeconds)
	}
	// Invalid geometry falls back to the analytic default, never fails.
	bad := Calibrate(ProbeConfig{D: 0, B: 0})
	if bad.Probed || bad.ReadStepSeconds <= 0 {
		t.Fatalf("fallback calibration = %+v", bad)
	}
}

// TestExplainValidation rejects unusable questions with telling errors.
func TestExplainValidation(t *testing.T) {
	shape := shapeFor(1024)
	if _, err := Explain(shape, Workload{N: 0}, DefaultCalibration(shape)); err == nil {
		t.Error("N = 0 accepted")
	}
	bad := shape
	bad.B = 16 // not √M
	if _, err := Explain(bad, Workload{N: 10}, DefaultCalibration(bad)); err == nil ||
		!strings.Contains(err.Error(), "√M") {
		t.Errorf("bad geometry error = %v", err)
	}
	if _, err := Explain(shape, Workload{N: 10, PayloadWords: -1}, DefaultCalibration(shape)); err == nil {
		t.Error("negative payload words accepted")
	}
}

// TestPermutePlanDepth: the distribution depth grows with the store and
// the passes are 2·(levels+1).
func TestPermutePlanDepth(t *testing.T) {
	mem, b, stripe := 1024, 32, 256
	padded, levels, passes := PermutePlan(512, mem, b, stripe)
	if padded != 512 || levels != 0 || passes != 2 {
		t.Fatalf("small store plan = (%d, %d, %.1f)", padded, levels, passes)
	}
	_, levels2, passes2 := PermutePlan(64*mem, mem, b, stripe)
	if levels2 < 1 || passes2 != 2*float64(levels2+1) {
		t.Fatalf("large store plan = (%d, %.1f)", levels2, passes2)
	}
	if _, _, p := PermutePlan(0, mem, b, stripe); p != 0 {
		t.Fatal("empty store must plan zero passes")
	}
}
