package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/workload"
)

func TestCheckGeometryErrors(t *testing.T) {
	cases := []pdm.Config{
		{D: 4, B: 16, Mem: 260 * 4}, // non-square M (1040)
		{D: 4, B: 16, Mem: 1024},    // B != sqrt(M)
		{D: 3, B: 8, Mem: 64},       // D does not divide sqrt(M)
	}
	for i, cfg := range cases {
		a, err := pdm.New(cfg)
		if err != nil {
			t.Fatalf("case %d: config invalid: %v", i, err)
		}
		if _, err := checkGeometry(a); err == nil {
			t.Fatalf("case %d: bad geometry accepted", i)
		}
	}
}

func TestFormRunsValidation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64 * 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formRuns(a, in, 0, 128, 65, 65); err == nil {
		t.Fatal("runLen > M accepted")
	}
	if _, err := formRuns(a, in, 0, 100, 64, 32); err == nil {
		t.Fatal("n not multiple of runLen accepted")
	}
	if _, err := formRuns(a, in, 0, 128, 64, 24); err == nil {
		t.Fatal("per not dividing runLen accepted")
	}
	if _, err := formRuns(a, in, 0, 128, 64, 4); err == nil {
		t.Fatal("per below B accepted")
	}
	if _, err := formRunsUnshuffled(a, in, 0, 128, 64, 3); err == nil {
		t.Fatal("non-dividing m accepted")
	}
	if _, err := formRunsUnshuffled(a, in, 0, 128, 64, 16); err == nil {
		t.Fatal("part length below B accepted")
	}
}

func TestShuffleCleanupValidation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	s1, err := a.NewStripeSkew(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.NewStripeSkew(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(int, []int64) error { return nil }
	if err := shuffleCleanup(a, nil, 64, emit); err == nil {
		t.Fatal("no sequences accepted")
	}
	if err := shuffleCleanup(a, viewsOf([]*pdm.Stripe{s1, s2}), 64, emit); err == nil {
		t.Fatal("unequal sequence lengths accepted")
	}
	if err := shuffleCleanup(a, viewsOf([]*pdm.Stripe{s1}), 63, emit); err == nil {
		t.Fatal("chunk share not block aligned accepted")
	}
}

func TestMergePartGroupsTooBig(t *testing.T) {
	a := newTestArray(t, 64, 4)
	runs := make([]*pdm.Stripe, 9) // 9 * 8 = 72 > M = 64 per group
	for i := range runs {
		s, err := a.NewStripeSkew(64, i)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = s
	}
	if _, _, err := mergePartGroups(a, runs, 8, 8); err == nil {
		t.Fatal("oversized merge group accepted")
	}
}

func TestSeqViewAddressing(t *testing.T) {
	a := newTestArray(t, 64, 4)
	s, err := a.NewStripeSkew(64*2, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := seqView{s: s, startBlk: 1, strideBlk: 4, keys: 16}
	if got, want := v.blockAddr(0), s.BlockAddr(1); got != want {
		t.Fatalf("blockAddr(0) = %v, want %v", got, want)
	}
	if got, want := v.blockAddr(2), s.BlockAddr(9); got != want {
		t.Fatalf("blockAddr(2) = %v, want %v", got, want)
	}
	plain := viewOf(s)
	if plain.keys != s.Len() || plain.strideBlk != 1 {
		t.Fatalf("viewOf = %+v", plain)
	}
}

// TestMergeSkewStep pins the (l, m)-merge's batch rule on the five bench
// and test geometries: wherever l·pb divides D the batch is the old
// D/(l·pb), a few off-divisor batches are pinned, and no l pays more pass-2
// steps than under the old rule, which fell back to one group per request
// whenever its batch ⌈D/(l·pb)⌉ did not divide m.
func TestMergeSkewStep(t *testing.T) {
	oldBatch := func(g geometry, l, pb, m int) int {
		batch := max(memsort.CeilDiv(g.d, l*pb), 1)
		for batch > 1 && (batch*l*pb*g.b > g.m || batch > m) {
			batch--
		}
		if m%batch != 0 {
			batch = 1
		}
		return batch
	}
	geo := func(mem, d int) geometry {
		sq := memsort.Isqrt(mem)
		return geometry{m: mem, b: sq, d: d, sqM: sq, dxb: d * sq}
	}
	for _, c := range []struct{ mem, d, l, pb, want int }{
		{256, 16, 8, 1, 2},
		{256, 16, 16, 1, 1},
		{256, 16, 4, 2, 4}, // batch 2 · pb 2
		{65536, 64, 17, 1, 15},
		{65536, 64, 3, 1, 64},
		{65536, 64, 12, 1, 16},
		{144, 4, 3, 1, 4}, // √M = 12 is no power of two
	} {
		if got := mergeSkewStep(geo(c.mem, c.d), c.l, c.pb, memsort.Isqrt(c.mem)); got != c.want {
			t.Errorf("M=%d D=%d l=%d pb=%d: step = %d, want %d", c.mem, c.d, c.l, c.pb, got, c.want)
		}
	}
	if got := mergeSkewStep(geo(256, 16), 0, 1, 16); got != 1 {
		t.Fatalf("degenerate step = %d", got)
	}
	for _, c := range []struct{ mem, d int }{{256, 4}, {1024, 8}, {4096, 16}, {16384, 32}, {65536, 64}} {
		g := geo(c.mem, c.d)
		m := g.sqM
		for l := 1; l <= m; l++ {
			batch := mergeSkewStep(g, l, 1, m)
			old := oldBatch(g, l, 1, m)
			if c.d%l == 0 && batch != old {
				t.Errorf("M=%d D=%d l=%d: batch %d, the old rule's was %d", c.mem, c.d, l, batch, old)
			}
			if batch*l*g.b > g.m {
				t.Errorf("M=%d D=%d l=%d: batch %d of %d-key groups exceeds M", c.mem, c.d, l, batch, l*g.b)
			}
			r, w := mergeSteps(g, l, 1, m, batch)
			oldSteps := m / old * memsort.CeilDiv(old*l, g.d)
			if r > oldSteps || w > oldSteps {
				t.Errorf("M=%d D=%d l=%d: %d/%d pass-2 steps, the old rule took %d", c.mem, c.d, l, r, w, oldSteps)
			}
		}
	}
}

func TestMaxDiskLoad(t *testing.T) {
	for _, c := range []struct{ d, n, stride, width, want int }{
		{4, 4, 1, 1, 1},    // one block per disk
		{4, 3, 4, 1, 3},    // every window starts on disk 0
		{64, 17, 15, 1, 1}, // 17 distinct multiples of 15 mod 64
		{8, 2, 4, 3, 1},    // windows [0,3) and [4,7)
		{8, 3, 4, 3, 2},    // the third window wraps onto [0,3)
	} {
		if got := maxDiskLoad(c.d, c.n, c.stride, c.width); got != c.want {
			t.Errorf("maxDiskLoad(%d, %d, %d, %d) = %d, want %d", c.d, c.n, c.stride, c.width, got, c.want)
		}
	}
}

func TestRollingPassSingleChunk(t *testing.T) {
	a := newTestArray(t, 64, 4)
	data := workload.ReverseSorted(64)
	var out []int64
	err := RollingPass(a, 64, 1,
		func(t int, dst []int64) error { copy(dst, data); return nil },
		func(t int, chunk []int64) error { out = append(out, chunk...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !memsort.IsSorted(out) || len(out) != 64 {
		t.Fatal("single-chunk rolling pass failed")
	}
}

func TestExpectedTwoPassValidation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64 + 8) // not a multiple of M
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedTwoPass(a, in); err == nil {
		t.Fatal("non-multiple-of-M accepted")
	}
	in2, err := a.NewStripe(64 * 3) // 3 does not divide sqrt(64) = 8
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedTwoPass(a, in2); err == nil {
		t.Fatal("run count not dividing sqrt(M) accepted")
	}
}

func TestExpectedSixPassValidation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64 * 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedSixPass(a, in); err == nil {
		t.Fatal("non-l^2*M accepted")
	}
}

func TestRadixSortValidation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	in, err := a.NewStripe(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RadixSort(a, in, 0); err == nil {
		t.Fatal("zero universe accepted")
	}
}

func TestArenaPhasePeaksAfterRun(t *testing.T) {
	// The per-phase peaks must reflect the paper's envelope: run formation
	// within M + DB-ish, cleanup at 2M, each plus the sort kernel's scratch
	// (in the cleanup, the chunk its merges write into).
	// A synchronous array keeps the figures exact (pipelining would add its
	// staging on top).
	const m = 256
	a := newSyncArray(t, m, 4)
	data := workload.Perm(m*4, 1)
	in := loadInput(t, a, data)
	a.Arena().ResetPeak()
	res, err := ExpectedTwoPass(a, in)
	if err != nil {
		t.Fatal(err)
	}
	res.Out.Free()
	peaks := a.Arena().PhasePeaks()
	if len(peaks) == 0 {
		t.Fatal("no phase peaks recorded")
	}
	found := false
	for _, p := range peaks {
		// Exactly 3M: the rolling window's 2M and the M-key chunk its
		// merges write into, which is the sort kernel's scratch too.
		if p == fmt.Sprintf("expectedtwopass/cleanup=%d", 2*m+m) {
			found = true
		}
	}
	if !found {
		t.Fatalf("cleanup peak not 2M + M: %v", peaks)
	}
}

func TestSortedInputIsAdversarialForNestedExpected(t *testing.T) {
	// Documented behaviour: sorted input concentrates run ranges and lands
	// in the exception set of the nested expected algorithms — the fallback
	// must fire and the output must still be correct.
	const m = 256
	a := newTestArray(t, m, 4)
	n := 16 * m
	data := workload.Sorted(n)
	in := loadInput(t, a, data)
	res, err := ExpectedThreePass(a, in)
	if err != nil {
		t.Fatal(err)
	}
	verifySorted(t, res, data)
	if !res.FellBack {
		t.Log("sorted input stayed on the fast path at this size (window large enough); also fine")
	}
}

func TestLowerBoundMonotonicInB(t *testing.T) {
	// For N > 8M the pass bound (lg N − lg B)/(lg(M/B) + 3) increases with
	// B — which is why the paper's Conclusions report a *lower* bound at
	// B = M^(1/3) (1.75) than at B = √M (2) for the same N = M^1.5.
	small, big := LowerBoundPasses(1<<30, 1<<20, 1<<8), LowerBoundPasses(1<<30, 1<<20, 1<<12)
	if small >= big {
		t.Fatalf("bound not increasing in B for N >> M: %v vs %v", small, big)
	}
}

func TestFreeHelpers(t *testing.T) {
	a := newTestArray(t, 64, 4)
	s, err := a.NewStripe(64)
	if err != nil {
		t.Fatal(err)
	}
	freeAll([]*pdm.Stripe{nil, s})
	freeAll2([][]*pdm.Stripe{nil, {}})
}

func TestIntegerSortEmptyBucketRange(t *testing.T) {
	// All keys in one bucket: maximal skew, still correct.
	const m = 64
	a := newTestArray(t, m, 4)
	n := 8 * m
	data := make([]int64, n)
	for i := range data {
		data[i] = 3
	}
	in := loadInput(t, a, data)
	res, err := IntegerSort(a, in, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Out.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, data) {
		t.Fatal("single-bucket input mangled")
	}
}

func TestScatterPassEmptySource(t *testing.T) {
	a := newTestArray(t, 64, 4)
	st := &scatterState{}
	kids, err := scatterPass(a, blockSeq{}, 8, func(k int64) int { return int(k) }, st)
	if err != nil || len(kids) != 8 {
		t.Fatalf("empty scatter = %v, %v", kids, err)
	}
}

func TestRollingPassErrorPropagation(t *testing.T) {
	a := newTestArray(t, 64, 4)
	boom := errors.New("boom")
	err := RollingPass(a, 64, 2,
		func(t int, dst []int64) error { return boom },
		func(int, []int64) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("read error not propagated: %v", err)
	}
}
