package plan

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pdm"
	"repro/internal/workload"
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

// TestRankingDeterministicUnderCalibration: the row order and the choice
// must not depend on what the probe measured, only on the geometry, so
// Auto stays deterministic across worker counts and probe noise.
func TestRankingDeterministicUnderCalibration(t *testing.T) {
	shape := shapeFor(4096)
	shape.BlockLatency = 3 * time.Millisecond
	cals := []Calibration{
		DefaultCalibration(shape),
		{ReadStepSeconds: 1e-3, WriteStepSeconds: 2e-3, SortSecondsPerKey: 1e-9},
		{ReadStepSeconds: 1e-6, WriteStepSeconds: 1e-6, SortSecondsPerKey: 5e-6},
	}
	for _, n := range []int{100, 4096, 3 * 4096, 5 * 4096, 20 * 4096, 100 * 4096} {
		var want []Alg
		for i, cal := range cals {
			r, err := Explain(shape, Workload{N: n}, cal)
			if err != nil {
				t.Fatal(err)
			}
			got := rowOrder(r)
			if r.Chosen != got[0] {
				t.Fatalf("N=%d, calibration %d: Chosen %s is not the first row %v", n, i, r.Chosen, got)
			}
			if i == 0 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("N=%d: order moved with calibration %d: %v vs %v", n, i, got, want)
			}
		}
	}
}

// rowOrder lists the report's rows by algorithm.
func rowOrder(r *Report) []Alg {
	order := make([]Alg, len(r.Candidates))
	for i, c := range r.Candidates {
		order[i] = c.Algorithm
	}
	return order
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
	shape := Shape{Mem: 1 << 12, B: 1 << 6, D: 1 << 4}
	padded, stripe := 1<<16, shape.Stripe()
	one := DiskEnvelope(shape, Workload{}, OnePass, padded)
	three := DiskEnvelope(shape, Workload{}, LMM3, padded)
	super := DiskEnvelope(shape, Workload{}, Seven, padded)
	if !(one < three && three < super) {
		t.Fatalf("envelope ordering broken: one=%d three=%d super=%d", one, three, super)
	}
	if three > 6*padded+2*stripe {
		t.Fatalf("three-pass envelope %d looser than the old family bound", three)
	}
}

// TestDiskEnvelopeBoundsFootprint: every comparison algorithm, on mem
// disks at pipeline depth 2/2 and M ∈ {1024, 4096}, D ∈ {4, 8, 16}, keeps
// the disk high-water of a random permutation (input stripe included)
// within its DiskEnvelope at every feasible run count l (l ≤ 8 for the
// l²·M-key algorithms) — below D too, where mesh3's column pass and the
// superrun family's outer merge spread over fewer disks than D.
func TestDiskEnvelopeBoundsFootprint(t *testing.T) {
	for _, mem := range []int{1024, 4096} {
		sq := isqrt(mem)
		for _, d := range []int{4, 8, 16} {
			shape := Shape{Mem: mem, B: sq, D: d, Alpha: 1, Prefetch: 2, WriteBehind: 2}
			for _, alg := range Candidates {
				if alg == Radix {
					continue
				}
				for l := 1; l <= sq; l++ {
					n := l * mem
					if alg == Exp3 || alg == Six || alg == Seven || alg == SevenMesh {
						if l > 8 {
							break
						}
						n = l * l * mem
					}
					padded, err := feasible(shape, Workload{N: n}, alg)
					if err != nil || padded != n {
						continue
					}
					foot := diskFootprint(t, shape, alg, padded)
					if env := DiskEnvelope(shape, Workload{N: padded}, alg, padded); foot > env {
						t.Errorf("M=%d D=%d %s l=%d: footprint %d keys (%.2f× padded) exceeds the envelope %d (%.2f×)",
							mem, d, alg, l, foot, float64(foot)/float64(padded), env, float64(env)/float64(padded))
					}
				}
			}
		}
	}
}

// diskFootprint sorts a random permutation of padded keys with alg and
// returns the run's disk high-water, in keys.
func diskFootprint(t *testing.T, shape Shape, alg Alg, padded int) int {
	t.Helper()
	a, err := pdm.New(pdm.Config{D: shape.D, B: shape.B, Mem: shape.Mem,
		Pipeline: pdm.PipelineConfig{Prefetch: shape.Prefetch, WriteBehind: shape.WriteBehind}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := a.NewStripe(padded)
	if err == nil {
		err = in.Load(workload.Perm(padded, int64(padded)))
	}
	if err == nil {
		_, err = alg.Run(a, in)
	}
	if err != nil {
		t.Fatalf("%s over %d keys: %v", alg, padded, err)
	}
	return a.DiskFootprint()
}

// TestSuperrunPricedAtExactPasses: Auto and -explain price the superrun
// family at the outer merge's exact count wherever ExactPasses has one,
// below l = D too, plus ExpectedSixPass's fallback surcharge.
func TestSuperrunPricedAtExactPasses(t *testing.T) {
	for _, mem := range []int{1024, 4096} {
		for _, d := range []int{4, 8, 16} {
			shape := Shape{Mem: mem, B: isqrt(mem), D: d, Alpha: 1}
			for _, l := range []int{1, 2, 4, 8} {
				w := Workload{N: l * l * mem}
				for _, alg := range []Alg{Six, Seven, SevenMesh} {
					want, _, exact := ExactPasses(shape, w, alg)
					if !exact {
						continue
					}
					if alg == Six {
						want += math.Pow(float64(mem), -shape.Alpha) * 7
					}
					padded, _ := feasible(shape, w, alg)
					if got := basePasses(shape, w, alg, padded); got != want {
						t.Errorf("M=%d D=%d l=%d %s: priced %.3f passes, exact %.3f", mem, d, l, alg, got, want)
					}
				}
			}
		}
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

// TestPermutePlanDepth: the distribution depth grows with the store, the
// passes are 2·(1 + levels·(1 + 2/w̄)), and each level's headers are two
// words per record.
func TestPermutePlanDepth(t *testing.T) {
	mem, b, stripe := 1024, 32, 256
	padded, levels, hdr, passes := PermutePlan(128, 512, mem, b, stripe)
	if padded != 512 || levels != 0 || hdr != 256 || passes != 2 {
		t.Fatalf("small store plan = (%d, %d, %d, %.1f)", padded, levels, hdr, passes)
	}
	for _, wbar := range []int{1, 2, 8, 32} {
		n := 64 * mem / wbar
		_, levels2, hdr2, passes2 := PermutePlan(n, 64*mem, mem, b, stripe)
		if want := 2 * (1 + float64(levels2)*(1+2/float64(wbar))); levels2 < 1 || hdr2 != 2*n || passes2 != want {
			t.Fatalf("w̄ = %d: large store plan = (%d, %d, %.3f), want %.3f passes", wbar, levels2, hdr2, passes2, want)
		}
	}
	if _, _, _, p := PermutePlan(0, 0, mem, b, stripe); p != 0 {
		t.Fatal("empty store must plan zero passes")
	}
}
