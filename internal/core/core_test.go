package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// newTestArray builds a PDM with the paper's geometry B = √M and M = C·D·B.
// The whole suite runs with pipelining enabled (prefetch depth > 1): the
// pass counts, traces, and sortedness assertions below therefore prove that
// the streaming layer is invisible to the PDM cost model.
func newTestArray(t *testing.T, m, d int) *pdm.Array {
	t.Helper()
	b := memsort.Isqrt(m)
	a, err := pdm.New(pdm.Config{D: d, B: b, Mem: m,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// newSyncArray builds the same PDM without pipelining, for assertions about
// the paper's exact memory envelope (the streaming layer legitimately adds
// its configured staging on top).
func newSyncArray(t *testing.T, m, d int) *pdm.Array {
	t.Helper()
	b := memsort.Isqrt(m)
	a, err := pdm.New(pdm.Config{D: d, B: b, Mem: m})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// loadInput stores data on the disks without touching the I/O stats.
func loadInput(t *testing.T, a *pdm.Array, data []int64) *pdm.Stripe {
	t.Helper()
	s, err := a.NewStripe(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(data); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	return s
}

// verifySorted checks that res.Out holds exactly the sorted input.
func verifySorted(t *testing.T, res *Result, input []int64) {
	t.Helper()
	if res.Out == nil {
		t.Fatal("nil output stripe")
	}
	got, err := res.Out.Unload()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int64(nil), input...)
	memsort.Keys(want)
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("output differs from sorted input first at %d: got %d, want %d", i, got[i], want[i])
			}
		}
		t.Fatalf("output length %d, want %d", len(got), len(want))
	}
}

// assertMemoryEnvelope checks the arena peak stayed within the capacity
// the configuration prices (pdm.Config.ArenaCapacity): the paper's 2M + DB,
// the configured pipeline staging and the sort kernel's M keys of scratch
// (the streaming layer's buffers and the kernel's scratch come from the
// same arena, so their budgets are part of the envelope), with no
// reservation refused — a refused kernel borrow would fall back to the
// introsort without an error.
func assertMemoryEnvelope(t *testing.T, a *pdm.Array) {
	t.Helper()
	limit := a.Config().ArenaCapacity()
	if peak := a.Arena().Peak(); peak > limit || a.Arena().Refused() != 0 {
		t.Fatalf("arena peak %d of capacity %d, %d reservations refused (phases: %v)",
			peak, limit, a.Arena().Refused(), a.Arena().PhasePeaks())
	}
}

func inputs(n, seed int64) map[string][]int64 {
	return map[string][]int64{
		"random":   workload.Perm(int(n), seed),
		"sorted":   workload.Sorted(int(n)),
		"reversed": workload.ReverseSorted(int(n)),
		"dups":     workload.FewDistinct(int(n), 7, seed),
		"zeroone":  workload.ZeroOneK(int(n), int(n)/3, seed),
		"organ":    workload.Organ(int(n)),
	}
}

func TestThreePass1SortsAndTakesThreePasses(t *testing.T) {
	for _, m := range []int{64, 256} {
		a := newTestArray(t, m, 4)
		sq := memsort.Isqrt(m)
		n := m * sq // full capacity M·√M
		for name, data := range inputs(int64(n), int64(m)) {
			in := loadInput(t, a, data)
			res, err := ThreePass1(a, in)
			if err != nil {
				t.Fatalf("M=%d %s: %v", m, name, err)
			}
			verifySorted(t, res, data)
			if res.ReadPasses != 3 || res.WritePasses != 3 {
				t.Fatalf("M=%d %s: passes = %.3f read / %.3f write, want exactly 3",
					m, name, res.ReadPasses, res.WritePasses)
			}
			assertMemoryEnvelope(t, a)
			res.Out.Free()
			in.Free()
		}
	}
}

// TestThreePass1ZeroOneExhaustive runs every 0-1 input class size k at
// M = 64, N = M·√M = 512, three placements each: ThreePass1 is oblivious,
// so by the 0-1 principle sorting all of them means it sorts every input
// of that size.  Each run must also take exactly three passes.
func TestThreePass1ZeroOneExhaustive(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	n := m * memsort.Isqrt(m)
	for k := 0; k <= n; k++ {
		for rep := 0; rep < 3; rep++ {
			data := workload.ZeroOneK(n, k, int64(k*10+rep))
			in := loadInput(t, a, data)
			res, err := ThreePass1(a, in)
			if err != nil {
				t.Fatalf("k=%d rep=%d: %v", k, rep, err)
			}
			verifySorted(t, res, data)
			if res.ReadPasses != 3 || res.WritePasses != 3 {
				t.Fatalf("k=%d rep=%d: passes = %.3f read / %.3f write, want exactly 3",
					k, rep, res.ReadPasses, res.WritePasses)
			}
			res.Out.Free()
			in.Free()
		}
	}
}

func TestThreePass1SmallerInputStillSorts(t *testing.T) {
	a := newTestArray(t, 64, 4)
	n := 4 * 64 // l = 4 < √M
	data := workload.Perm(n, 2)
	in := loadInput(t, a, data)
	res, err := ThreePass1(a, in)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
}

func TestThreePass1Validation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64 * 9) // l = 9 > √M = 8
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThreePass1(a, in); err == nil {
		t.Fatal("oversized input accepted")
	}
	// Wrong block size.
	bad, err := pdm.New(pdm.Config{D: 4, B: 16, Mem: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := bad.NewStripe(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThreePass1(bad, s); err == nil {
		t.Fatal("B != sqrt(M) accepted")
	}
}

func TestThreePass2SortsAndTakesThreePasses(t *testing.T) {
	for _, m := range []int{64, 256} {
		a := newTestArray(t, m, 4)
		sq := memsort.Isqrt(m)
		n := m * sq
		for name, data := range inputs(int64(n), int64(m+1)) {
			in := loadInput(t, a, data)
			res, err := ThreePass2(a, in)
			if err != nil {
				t.Fatalf("M=%d %s: %v", m, name, err)
			}
			verifySorted(t, res, data)
			if res.ReadPasses != 3 || res.WritePasses != 3 {
				t.Fatalf("M=%d %s: passes = %.3f read / %.3f write, want exactly 3",
					m, name, res.ReadPasses, res.WritePasses)
			}
			assertMemoryEnvelope(t, a)
			res.Out.Free()
			in.Free()
		}
	}
}

func TestThreePass2PartialCapacity(t *testing.T) {
	a := newTestArray(t, 64, 4)
	for _, l := range []int{1, 2, 4} {
		n := l * 64
		data := workload.Perm(n, int64(l))
		in := loadInput(t, a, data)
		res, err := ThreePass2(a, in)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		verifySorted(t, res, data)
		res.Out.Free()
		in.Free()
	}
}

func TestThreePass2Validation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64*8 + 64) // l = 9 > √M
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThreePass2(a, in); err == nil {
		t.Fatal("oversized input accepted")
	}
}

func TestExpTwoPassMeshRandomTwoPasses(t *testing.T) {
	const m = 256
	a := newTestArray(t, m, 4)
	n := 4 * m // well under capacity: dirty band stays narrow
	fellBack := 0
	for trial := 0; trial < 10; trial++ {
		data := workload.Perm(n, int64(trial))
		in := loadInput(t, a, data)
		res, err := ExpTwoPassMesh(a, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verifySorted(t, res, data)
		if res.FellBack {
			fellBack++
		} else if res.ReadPasses != 2 || res.WritePasses != 2 {
			t.Fatalf("trial %d: passes = %.3f/%.3f, want exactly 2", trial, res.ReadPasses, res.WritePasses)
		}
		assertMemoryEnvelope(t, a)
		res.Out.Free()
		in.Free()
	}
	if fellBack > 1 {
		t.Fatalf("%d/10 random trials fell back", fellBack)
	}
}

func TestExpTwoPassMeshAdversarialFallsBack(t *testing.T) {
	const m = 256
	a := newTestArray(t, m, 4)
	sq := memsort.Isqrt(m)
	n := 4 * m
	data := workload.ColumnLoaded(n, sq)
	// The mesh view is column-contiguous, so translate: keys loaded into
	// one mesh column = one contiguous input range; SegmentReversed puts
	// the smallest keys in the last column-range, which the column sort
	// cannot fix.
	data = workload.SegmentReversed(n, n/sq)
	in := loadInput(t, a, data)
	res, err := ExpTwoPassMesh(a, in)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
	if !res.FellBack {
		t.Fatal("adversarial input did not trigger fallback")
	}
	// The paper charges 2 wasted + 3 fallback = 5 passes; the detection
	// fires mid-cleanup, so the measured figure is ≤ 5 and > 3.
	if res.ReadPasses <= 3 || res.ReadPasses > 5 {
		t.Fatalf("fallback passes = %.3f read / %.3f write, want in (3, 5]", res.ReadPasses, res.WritePasses)
	}
}

func TestExpectedTwoPassRandom(t *testing.T) {
	for _, m := range []int{256, 1024} {
		a := newTestArray(t, m, 4)
		n1 := expectedTwoPassRuns(m, 1)
		if n1 < 2 {
			n1 = 2
		}
		n := n1 * m
		fellBack := 0
		for trial := 0; trial < 10; trial++ {
			data := workload.Perm(n, int64(trial*7))
			in := loadInput(t, a, data)
			res, err := ExpectedTwoPass(a, in)
			if err != nil {
				t.Fatalf("M=%d trial %d: %v", m, trial, err)
			}
			verifySorted(t, res, data)
			if res.FellBack {
				fellBack++
			} else if res.ReadPasses != 2 || res.WritePasses != 2 {
				t.Fatalf("M=%d trial %d: passes = %.3f/%.3f, want exactly 2",
					m, trial, res.ReadPasses, res.WritePasses)
			}
			assertMemoryEnvelope(t, a)
			res.Out.Free()
			in.Free()
		}
		if fellBack > 1 {
			t.Fatalf("M=%d: %d/10 random trials fell back", m, fellBack)
		}
	}
}

func TestExpectedTwoPassAdversarialFallsBack(t *testing.T) {
	const m = 256
	a := newTestArray(t, m, 4)
	n := 4 * m
	data := workload.SegmentReversed(n, m)
	in := loadInput(t, a, data)
	res, err := ExpectedTwoPass(a, in)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
	if !res.FellBack {
		t.Fatal("segment-reversed input did not trigger fallback")
	}
	// ≤ 5 = 2 wasted + 3 fallback; detection aborts the wasted pass early.
	if res.ReadPasses <= 3 || res.ReadPasses > 5 {
		t.Fatalf("fallback read passes = %.3f, want in (3, 5]", res.ReadPasses)
	}
}

func TestExpectedTwoPassCapacityFormula(t *testing.T) {
	// Theorem 5.1 formula sanity: capacity grows with M and shrinks with α.
	if expectedTwoPassCapacity(1<<20, 1) <= expectedTwoPassCapacity(1<<16, 1) {
		t.Fatal("capacity not increasing in M")
	}
	if expectedTwoPassCapacity(1<<20, 1) <= expectedTwoPassCapacity(1<<20, 3) {
		t.Fatal("capacity not decreasing in alpha")
	}
	// And the run-count helper respects divisibility.
	for _, m := range []int{64, 256, 1024} {
		n1 := expectedTwoPassRuns(m, 1)
		if memsort.Isqrt(m)%n1 != 0 {
			t.Fatalf("M=%d: N1 = %d does not divide sqrt(M)", m, n1)
		}
	}
}

func TestSevenPassSortsMSquared(t *testing.T) {
	for _, m := range []int{64, 256} {
		a := newTestArray(t, m, 4)
		n := m * m // l = √M
		data := workload.Perm(n, int64(m))
		in := loadInput(t, a, data)
		res, err := SevenPass(a, in)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		verifySorted(t, res, data)
		if res.ReadPasses != 7 || res.WritePasses != 7 {
			t.Fatalf("M=%d: passes = %.3f read / %.3f write, want exactly 7",
				m, res.ReadPasses, res.WritePasses)
		}
		assertMemoryEnvelope(t, a)
		res.Out.Free()
		in.Free()
	}
}

func TestSevenPassSmallerL(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	for _, l := range []int{1, 2, 4} {
		n := l * l * m
		data := workload.Perm(n, int64(l*11))
		in := loadInput(t, a, data)
		res, err := SevenPass(a, in)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		verifySorted(t, res, data)
		res.Out.Free()
		in.Free()
	}
}

func TestSevenPassInputClasses(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	n := m * m
	for name, data := range inputs(int64(n), 5) {
		in := loadInput(t, a, data)
		res, err := SevenPass(a, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		verifySorted(t, res, data)
		res.Out.Free()
		in.Free()
	}
}

func TestSevenPassValidation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64 * 3) // not l²M
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SevenPass(a, in); err == nil {
		t.Fatal("non-l²M input accepted")
	}
}

func TestExpectedSixPass(t *testing.T) {
	const m = 256
	a := newTestArray(t, m, 4)
	for _, l := range []int{2, 4} {
		n := l * l * m
		fellBack := 0
		for trial := 0; trial < 5; trial++ {
			data := workload.Perm(n, int64(trial+l*100))
			in := loadInput(t, a, data)
			res, err := ExpectedSixPass(a, in)
			if err != nil {
				t.Fatalf("l=%d trial %d: %v", l, trial, err)
			}
			verifySorted(t, res, data)
			if res.FellBack {
				fellBack++
			} else if l >= a.D() && (res.ReadPasses != 6 || res.WritePasses != 6) {
				// Exact pass counts hold at full parallel occupancy
				// (l ≥ D); below it the per-request step floor inflates
				// the measured figure (the algorithm is designed for
				// l = √M).
				t.Fatalf("l=%d trial %d: passes = %.3f/%.3f, want exactly 6",
					l, trial, res.ReadPasses, res.WritePasses)
			}
			assertMemoryEnvelope(t, a)
			res.Out.Free()
			in.Free()
		}
		if fellBack > 1 {
			t.Fatalf("l=%d: %d/5 trials fell back", l, fellBack)
		}
	}
}

func TestExpectedThreePass(t *testing.T) {
	const m = 256
	a := newTestArray(t, m, 4)
	l := 4
	n := l * l * m
	fellBack := 0
	for trial := 0; trial < 8; trial++ {
		data := workload.Perm(n, int64(trial*31))
		in := loadInput(t, a, data)
		res, err := ExpectedThreePass(a, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verifySorted(t, res, data)
		if res.FellBack {
			fellBack++
		} else if res.ReadPasses != 3 || res.WritePasses != 3 {
			t.Fatalf("trial %d: passes = %.3f/%.3f, want exactly 3",
				trial, res.ReadPasses, res.WritePasses)
		}
		assertMemoryEnvelope(t, a)
		res.Out.Free()
		in.Free()
	}
	if fellBack > 2 {
		t.Fatalf("%d/8 trials fell back", fellBack)
	}
}

func TestExpectedThreePassAdversarial(t *testing.T) {
	const m = 256
	a := newTestArray(t, m, 4)
	l := 4
	n := l * l * m
	data := workload.SegmentReversed(n, l*m)
	in := loadInput(t, a, data)
	res, err := ExpectedThreePass(a, in)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
	if !res.FellBack {
		t.Fatal("segment-reversed input did not trigger any fallback")
	}
}

func TestCapacityFormulas(t *testing.T) {
	m := 1 << 20
	if c := ExpectedThreePassCapacity(m, 1); c <= expectedTwoPassCapacity(m, 1) {
		t.Fatalf("M^1.75 capacity %d not above M^1.5 capacity %d", c, expectedTwoPassCapacity(m, 1))
	}
	if c := ExpectedSixPassCapacity(m, 1); c <= ExpectedThreePassCapacity(m, 1) {
		t.Fatalf("M^2 capacity %d not above M^1.75 capacity %d", c, ExpectedThreePassCapacity(m, 1))
	}
	if ExpectedSixPassCapacity(m, 1) >= m*m {
		t.Fatal("six-pass capacity should be below M^2")
	}
}

func TestIntegerSort(t *testing.T) {
	const m = 64
	r := m / memsort.Isqrt(m) // M/B = 8
	n := 64 * m               // a whole number of stripes
	// The scatter's pinned write steps sit above the ⌈blocks/D⌉ = 129
	// floor.  stream.Scatter writes the head of every non-empty disk queue
	// per step, and the per-bucket rotations now and then leave a queue
	// empty when the stage fills, and uneven at the final drain; each such
	// step writes fewer than D blocks.
	for _, tc := range []struct {
		name               string
		data               []int64
		blocks, writeSteps int64
	}{
		{"uniform", workload.Uniform(n, 0, int64(r-1), 3), 515, 131},
		{"zipf", workload.Zipf(n, 1.3, uint64(r-1), 4), 516, 135},
	} {
		a := newTestArray(t, m, 4)
		in := loadInput(t, a, tc.data)
		res, err := IntegerSort(a, in, r, true)
		if err != nil {
			t.Fatal(err)
		}
		verifySorted(t, res, tc.data)
		// Theorem 7.1: 2(1+µ) passes with µ < 1 including step A.
		if res.ReadPasses >= 4 {
			t.Fatalf("%s: read passes = %.3f, want < 4 = 2(1+µ) with µ<1", tc.name, res.ReadPasses)
		}
		assertMemoryEnvelope(t, a)
		res.Out.Free()
		in.Free()

		// Without step A: no output stripe, and the scatter alone.  It reads
		// the source one stripe per request, exactly one pass, and writes
		// through stream.Scatter, at most one block per disk per step.  On a
		// synchronous array its phase peak is exactly the carries (M), the
		// Scatter's stage (M) and one stripe of read buffer.
		a = newSyncArray(t, m, 4)
		in = loadInput(t, a, tc.data)
		res, err = IntegerSort(a, in, r, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Out != nil {
			t.Fatalf("%s: unexpected output stripe without rearrange", tc.name)
		}
		if res.ReadPasses != 1 {
			t.Fatalf("%s: read passes = %.3f without step A, want exactly 1", tc.name, res.ReadPasses)
		}
		if res.IO.BlocksWritten != tc.blocks || res.IO.WriteSteps != tc.writeSteps {
			t.Fatalf("%s: %d blocks in %d write steps, want %d in %d",
				tc.name, res.IO.BlocksWritten, res.IO.WriteSteps, tc.blocks, tc.writeSteps)
		}
		want := fmt.Sprintf("integersort/scatter=%d", 2*m+a.StripeWidth())
		if !slices.Contains(a.Arena().PhasePeaks(), want) {
			t.Fatalf("%s: scatter peak not 2M+DB: %v", tc.name, a.Arena().PhasePeaks())
		}
		in.Free()
	}
}

func TestIntegerSortSkewed(t *testing.T) {
	// Heavily skewed buckets still sort correctly; the write steps inflate
	// (the bound degrades toward max_i ceil(N_i/B)) but correctness holds.
	const m = 64
	a := newTestArray(t, m, 4)
	n := 16 * m
	data := workload.Zipf(n, 1.5, 7, 5)
	in := loadInput(t, a, data)
	res, err := IntegerSort(a, in, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
}

func TestIntegerSortRejectsOutOfRange(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	data := workload.Uniform(m, 0, 100, 1) // beyond R = 8
	in := loadInput(t, a, data)
	if _, err := IntegerSort(a, in, 8, true); err == nil {
		t.Fatal("out-of-range keys accepted")
	}
	// The error path must release every streaming buffer (leak regression:
	// a writer left unclosed would pin its staging and flusher goroutine).
	if got := a.Arena().InUse(); got != 0 {
		t.Fatalf("arena holds %d keys after the error path, want 0", got)
	}
}

func TestRadixSort(t *testing.T) {
	const m = 256 // B = 16: large enough for the bucket concentration
	for _, tc := range []struct {
		name     string
		n        int
		universe int64
		maxReads float64
	}{
		// Observation 7.2 shape: (1+ν)·log(N/M)/log(M/B) + 1 passes with
		// ν < 1.  log(N/M)/log(M/B) = log_16(64) → 2 scatter rounds, so
		// passes must be below 2·2+1 = 5 (ν < 1).
		{"two rounds", 64 * m, 1 << 16, 5},
		// 30 key bits are not a multiple of the 4-bit digit: the first round
		// must still split on the top 4 bits, so N = 8M fits in one round
		// plus step A.
		{"ragged key width", 8 * m, 1 << 30, 3},
	} {
		a := newTestArray(t, m, 4)
		data := workload.Uniform(tc.n, 0, tc.universe-1, 7)
		in := loadInput(t, a, data)
		res, err := RadixSort(a, in, tc.universe)
		if err != nil {
			t.Fatal(err)
		}
		verifySorted(t, res, data)
		if res.ReadPasses >= tc.maxReads {
			t.Fatalf("%s: read passes = %.3f, want < %g", tc.name, res.ReadPasses, tc.maxReads)
		}
		assertMemoryEnvelope(t, a)
		res.Out.Free()
		in.Free()
	}
	if pred := RadixSortPredictedPasses(64*m, m, memsort.Isqrt(m), 4); pred >= 5 {
		t.Fatalf("prediction %.3f out of the theorem's range", pred)
	}
}

func TestRadixSortMoreRoundsForBiggerN(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	universe := int64(1) << 15
	measure := func(n int) float64 {
		data := workload.Uniform(n, 0, universe-1, 3)
		in := loadInput(t, a, data)
		res, err := RadixSort(a, in, universe)
		if err != nil {
			t.Fatal(err)
		}
		verifySorted(t, res, data)
		res.Out.Free()
		in.Free()
		return res.ReadPasses
	}
	small := measure(8 * m)   // 1 scatter round
	large := measure(512 * m) // 3 scatter rounds
	if large <= small {
		t.Fatalf("passes should grow with N: %.3f (small) vs %.3f (large)", small, large)
	}
}

func TestRadixSortAllEqualKeys(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	n := 16 * m
	data := make([]int64, n)
	for i := range data {
		data[i] = 42
	}
	in := loadInput(t, a, data)
	res, err := RadixSort(a, in, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
}

func TestRadixSortSmallInput(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	data := workload.Uniform(m/2, 0, 1000, 9) // fits in memory: 0 rounds
	in := loadInput(t, a, data)
	res, err := RadixSort(a, in, 1024)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
	if res.ReadPasses > 1.01 {
		t.Fatalf("in-memory-sized input took %.3f read passes", res.ReadPasses)
	}
}

func TestRadixSortZipf(t *testing.T) {
	const m = 64
	a := newTestArray(t, m, 4)
	n := 32 * m
	data := workload.Zipf(n, 1.2, 1<<12-1, 11)
	in := loadInput(t, a, data)
	res, err := RadixSort(a, in, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
}

func TestLowerBound(t *testing.T) {
	// Lemma 2.1 evaluates the Arge–Knudsen–Larsen inequality; the "nearly
	// 2 / nearly 3 passes" readings hold as B·log(M/B) ≫ 3B, i.e. for
	// large M.  Check the formula against the paper's own closed form at
	// the paper-scale M and the asymptotic trend at large M.
	const m = 1024
	b := 32
	p15 := LowerBoundPasses(m*b, m, b)
	// Paper's closed form: I ≥ 2M·(1 − 1.45/lg M)/(1 + 6/lg M), i.e.
	// passes ≥ 2·(1 − 1.45/lg M)/(1 + 6/lg M).
	lgM := math.Log2(float64(m))
	paper := 2 * (1 - 1.45/lgM) / (1 + 6/lgM)
	if math.Abs(p15-paper) > 0.15 {
		t.Fatalf("lower bound %.3f disagrees with the paper's closed form %.3f", p15, paper)
	}
	p20 := LowerBoundPasses(m*m, m, b)
	if p20 <= p15 {
		t.Fatal("bound not increasing in N")
	}
	// Asymptotics: at M = 2^40, B = 2^20 the M^1.5 bound exceeds 1.5 and
	// the M^2-style bound (at M = 2^30) exceeds 2.
	big15 := LowerBoundPasses(1<<60, 1<<40, 1<<20)
	if big15 < 1.5 || big15 > 2 {
		t.Fatalf("asymptotic M^1.5 bound = %.3f, want in [1.5, 2]", big15)
	}
	big20 := LowerBoundPasses(1<<60, 1<<30, 1<<15)
	if big20 < 2 || big20 > 3 {
		t.Fatalf("asymptotic M^2 bound = %.3f, want in [2, 3]", big20)
	}
	if LowerBoundPasses(1, m, b) != 0 || LowerBoundPasses(100, 8, 16) != 0 {
		t.Fatal("degenerate bounds should be 0")
	}
	// The matching algorithms respect the bound: 3 ≥ p15, 7 ≥ p20.
	if 3 < p15 || 7 < p20 {
		t.Fatal("inconsistent bound")
	}
}

func TestLowerBoundB13(t *testing.T) {
	// The paper's Conclusions: with B = M^(1/3) the bound for M√M keys is
	// about 1.75 passes — lower than the 2 at B = √M.
	const m = 1 << 18 // 2^18: B13 = 64, B12 = 512
	b13 := 64
	b12 := 512
	p13 := LowerBoundPasses(m*512, m, b13)
	p12 := LowerBoundPasses(m*512, m, b12)
	if p13 >= p12 {
		t.Fatalf("bound at B=M^1/3 (%.3f) should be below bound at B=sqrt(M) (%.3f)", p13, p12)
	}
}

func TestRollingPassDetectionExactness(t *testing.T) {
	// White-box: RollingPass must accept displacement exactly at the window
	// and reject one past it.
	const m = 64
	a := newTestArray(t, m, 4)
	n := 4 * m
	ok := workload.NearlySorted(n, m, 1)
	chunks := n / m
	read := func(data []int64) func(int, []int64) error {
		return func(t int, dst []int64) error {
			copy(dst, data[t*m:(t+1)*m])
			return nil
		}
	}
	var out []int64
	emit := func(t int, chunk []int64) error {
		out = append(out, chunk...)
		return nil
	}
	if err := RollingPass(a, m, chunks, read(ok), emit); err != nil {
		t.Fatalf("window-sized displacement rejected: %v", err)
	}
	if !memsort.IsSorted(out) {
		t.Fatal("not sorted")
	}
	// Swap two keys 2 chunks apart: displacement 2M > window.
	bad := workload.Sorted(n)
	bad[0], bad[3*m] = bad[3*m], bad[0]
	out = nil
	if err := RollingPass(a, m, chunks, read(bad), emit); !errors.Is(err, ErrCleanupOverflow) {
		t.Fatalf("err = %v, want ErrCleanupOverflow", err)
	}
}

func TestFinishPassArithmetic(t *testing.T) {
	st := pdm.Stats{ReadSteps: 24, WriteSteps: 12}
	_ = st
	if math.Abs(LowerBoundPasses(1024*32, 1024, 32)-LowerBoundPasses(1024*32, 1024, 32)) > 0 {
		t.Fatal("nondeterministic bound")
	}
}
