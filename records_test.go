package repro

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/workload"
)

func TestSortPairs(t *testing.T) {
	m := newTestMachine(t, 256)
	n := 3000
	keys := workload.Uniform(n, 0, 99, 4) // many duplicates: stability matters
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = int64(i) * 10
	}
	type rec struct{ k, p int64 }
	want := make([]rec, n)
	for i := range want {
		want[i] = rec{keys[i], payloads[i]}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })

	rep, err := m.SortPairs(keys, payloads, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != n {
		t.Fatalf("report N = %d", rep.N)
	}
	for i := range want {
		if keys[i] != want[i].k || payloads[i] != want[i].p {
			t.Fatalf("record %d = (%d, %d), want (%d, %d) — stability or pairing broken",
				i, keys[i], payloads[i], want[i].k, want[i].p)
		}
	}
}

func TestSortPairsValidation(t *testing.T) {
	m := newTestMachine(t, 256)
	if _, err := m.SortPairs([]int64{1}, []int64{1, 2}, Auto); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := m.SortPairs([]int64{-1}, []int64{0}, Auto); err == nil {
		t.Fatal("negative key accepted")
	}
	if _, err := m.SortPairs([]int64{1 << 32}, []int64{0}, Auto); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// sortedReference stably sorts (key, payload) records in memory.
func sortedReference(keys []int64, payloads [][]byte) ([]int64, [][]byte) {
	type rec struct {
		k int64
		p []byte
	}
	recs := make([]rec, len(keys))
	for i := range recs {
		recs[i] = rec{keys[i], payloads[i]}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].k < recs[j].k })
	outK := make([]int64, len(keys))
	outP := make([][]byte, len(keys))
	for i, r := range recs {
		outK[i], outP[i] = r.k, r.p
	}
	return outK, outP
}

func genTestPayloads(n, maxLen int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, rng.Intn(maxLen+1))
		rng.Read(p)
		out[i] = p
	}
	return out
}

func checkRecords(t *testing.T, wantK []int64, wantP [][]byte, gotK []int64, gotP [][]byte) {
	t.Helper()
	for i := range wantK {
		if gotK[i] != wantK[i] || !bytes.Equal(gotP[i], wantP[i]) {
			t.Fatalf("record %d = (%d, %x), want (%d, %x) — stability or pairing broken",
				i, gotK[i], gotP[i], wantK[i], wantP[i])
		}
	}
}

func TestSortRecordsVariableWidth(t *testing.T) {
	m := newTestMachine(t, 256)
	n := 3000
	keys := workload.Uniform(n, 0, 99, 4) // duplicates: stability matters
	payloads := genTestPayloads(n, 24, 9)
	wantK, wantP := sortedReference(keys, payloads)
	rep, err := m.SortRecords(keys, payloads, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != n || rep.KeyRounds != 1 {
		t.Fatalf("report N = %d, KeyRounds = %d", rep.N, rep.KeyRounds)
	}
	if rep.PayloadWords == 0 || rep.PermutePasses <= 0 {
		t.Fatalf("permutation not accounted: %d words, %.3f passes", rep.PayloadWords, rep.PermutePasses)
	}
	// The permutation's I/O must be folded into the report's raw stats:
	// strictly more steps than the key sort alone charges over PaddedN.
	minKeySortSteps := int64(rep.PaddedN / (m.Array().D() * m.Array().B()))
	if rep.IO.ReadSteps <= minKeySortSteps {
		t.Fatalf("report I/O %+v does not include the permutation", rep.IO)
	}
	checkRecords(t, wantK, wantP, keys, payloads)
}

// TestSortRecordsWideKeys drives the LSD path: keys spanning the full
// int64 range (negatives included) cannot share a word with the index, so
// the layer runs multiple packed digit rounds.
func TestSortRecordsWideKeys(t *testing.T) {
	m := newTestMachine(t, 256)
	n := 2000
	rng := rand.New(rand.NewSource(17))
	keys := make([]int64, n)
	for i := range keys {
		switch i % 5 {
		case 0:
			keys[i] = -rng.Int63() // negative half
		case 1:
			keys[i] = math.MinInt64 + int64(rng.Intn(3))
		case 2:
			keys[i] = math.MaxInt64 - 1 - int64(rng.Intn(3))
		default:
			keys[i] = rng.Int63()
		}
	}
	payloads := genTestPayloads(n, 16, 23)
	wantK, wantP := sortedReference(keys, payloads)
	rep, err := m.SortRecords(keys, payloads, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeyRounds < 2 {
		t.Fatalf("full-width keys sorted in %d round(s)", rep.KeyRounds)
	}
	checkRecords(t, wantK, wantP, keys, payloads)
}

func TestSortRecordsStabilityOnEqualKeys(t *testing.T) {
	m := newTestMachine(t, 256)
	n := 1500
	keys := make([]int64, n) // all equal: output must be the identity
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("rec-%05d", i))
	}
	if _, err := m.SortRecords(keys, payloads, Auto); err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		if want := fmt.Sprintf("rec-%05d", i); string(payloads[i]) != want {
			t.Fatalf("payload %d = %q, want %q", i, payloads[i], want)
		}
	}
}

// TestSortRecordsErrorLeavesInputUntouched: a failed run must not leave
// the caller with keys reordered away from their payloads.
func TestSortRecordsErrorLeavesInputUntouched(t *testing.T) {
	m := newTestMachine(t, 256)
	n := 2000
	keys := workload.Uniform(n, 0, 999, 8)
	payloads := genTestPayloads(n, 12, 3)
	wantK := append([]int64(nil), keys...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Array().BindContext(ctx)
	if _, err := m.SortRecords(keys, payloads, Auto); err == nil {
		t.Fatal("canceled sort succeeded")
	}
	if !slices.Equal(keys, wantK) {
		t.Fatal("failed sort mutated the caller's keys")
	}
	if m.Array().Arena().InUse() != 0 {
		t.Fatal("failed sort leaked arena memory")
	}
}

func TestSortRecordsValidation(t *testing.T) {
	m := newTestMachine(t, 256)
	if _, err := m.SortRecords([]int64{1}, [][]byte{{1}, {2}}, Auto); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := m.SortRecords(nil, nil, Auto); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestPackingBoundary exercises the 2^30-record boundary logic at the
// unit level (no 8 GiB allocation): the planner must give exactly 2^30
// records a 30-bit index field and a 32-bit key field — SortPairs' legacy
// packing — with every packed value below the MaxInt64 sentinel, and the
// pair-count guard must accept exactly 2^30 but reject one more.
func TestPackingBoundary(t *testing.T) {
	pp, err := planPacking(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if pp.idxBits != pairIdxBits || pp.keyBits != pairKeyBits {
		t.Fatalf("2^30 records plan = %d idx bits, %d key bits; want %d and %d",
			pp.idxBits, pp.keyBits, pairIdxBits, pairKeyBits)
	}
	maxKey := pp.keyLimit - 1  // 2^32 − 1
	maxIdx := int64(1)<<30 - 1 // last of exactly 2^30 indices
	packed := maxKey<<pp.idxBits | maxIdx
	if packed >= math.MaxInt64 {
		t.Fatalf("maximal packed word %d collides with the padding sentinel", packed)
	}
	if got := packed & pp.idxMask; got != maxIdx {
		t.Fatalf("unpacked index %d, want %d", got, maxIdx)
	}
	if got := packed >> pp.idxBits; got != maxKey {
		t.Fatalf("unpacked key %d, want %d", got, maxKey)
	}
	// The off-by-one: exactly 2^30 records are inside the contract.
	if !pairCountOK(1 << 30) {
		t.Fatal("exactly 2^30 records rejected — the off-by-one is back")
	}
	if pairCountOK(1<<30 + 1) {
		t.Fatal("2^30+1 records accepted")
	}
	// One record more halves the key field, never corrupts it.
	pp2, err := planPacking(1<<30 + 1)
	if err != nil {
		t.Fatal(err)
	}
	if pp2.idxBits != 31 || pp2.keyBits != packedSortBits-31 {
		t.Fatalf("2^30+1 records plan = %+v", pp2)
	}
	// Single-record degenerate plan: no index bits needed.
	pp1, err := planPacking(1)
	if err != nil {
		t.Fatal(err)
	}
	if pp1.idxBits != 0 || pp1.rounds() != 2 {
		t.Fatalf("1-record plan = %+v (rounds %d)", pp1, pp1.rounds())
	}
}

// TestSortRecordsMillionBitIdentical is the acceptance run for the
// records layer: 2^20 variable-width byte records, sorted on dedicated
// machines with Workers=1 and Workers=8 and through the scheduler, must
// produce bit-identical keys and payload bytes, with the permutation
// pass's I/O charged in the report.
func TestSortRecordsMillionBitIdentical(t *testing.T) {
	const n = 1 << 20
	const mem = 16384 // sqrt(M)=128; ThreePass2 capacity M*sqrt(M) = 2^21
	keys := workload.Uniform(n, 0, 1<<40, 1)
	rng := rand.New(rand.NewSource(2))
	payloads := make([][]byte, n)
	for i := range payloads {
		p := make([]byte, rng.Intn(13)) // 0..12 bytes, variable width
		rng.Read(p)
		payloads[i] = p
	}

	type run struct {
		keys     []int64
		payloads [][]byte
		rep      *Report
	}
	dedicated := func(workers int) run {
		m, err := NewMachine(MachineConfig{Memory: mem, Workers: workers,
			Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		k := append([]int64(nil), keys...)
		p := make([][]byte, n)
		copy(p, payloads)
		rep, err := m.SortRecords(k, p, ThreePassLMM)
		if err != nil {
			t.Fatal(err)
		}
		return run{k, p, rep}
	}
	serial := dedicated(1)
	parallel := dedicated(8)

	// Scheduler run: same geometry, same pipeline, same worker width.
	s, err := NewScheduler(SchedulerConfig{
		Memory:     80000,
		DiskBudget: 8 << 20, // the payload spill needs more than 64x mem
		Workers:    8,
		JobMemory:  mem,
		Pipeline:   PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(JobSpec{
		Keys:     append([]int64(nil), keys...),
		Payloads: append([][]byte(nil), payloads...),
		Alg:      ThreePassLMM,
		Workers:  8,
		KeepKeys: true,
		Label:    "records-acceptance",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("scheduler job finished %s: %s", st.State, st.Error)
	}
	schedKeys, schedPayloads, err := s.SortedRecords(id)
	if err != nil {
		t.Fatal(err)
	}

	if !slices.IsSorted(serial.keys) {
		t.Fatal("output keys not sorted")
	}
	for name, other := range map[string]run{
		"workers=8": parallel,
		"scheduler": {schedKeys, schedPayloads, st.Report},
	} {
		if !slices.Equal(serial.keys, other.keys) {
			t.Fatalf("%s: keys differ from the workers=1 run", name)
		}
		for i := range serial.payloads {
			if !bytes.Equal(serial.payloads[i], other.payloads[i]) {
				t.Fatalf("%s: payload %d differs from the workers=1 run", name, i)
			}
		}
		rep := other.rep
		if rep == nil {
			t.Fatalf("%s: no report", name)
		}
		if rep.Passes != serial.rep.Passes ||
			rep.PermutePasses != serial.rep.PermutePasses ||
			rep.PayloadWords != serial.rep.PayloadWords ||
			rep.KeyRounds != serial.rep.KeyRounds ||
			rep.PaddedN != serial.rep.PaddedN {
			t.Fatalf("%s: report differs: %+v vs %+v", name, rep, serial.rep)
		}
		if normalizeStats(rep.IO) != normalizeStats(serial.rep.IO) {
			t.Fatalf("%s: I/O stats differ:\n%+v\n%+v", name,
				normalizeStats(rep.IO), normalizeStats(serial.rep.IO))
		}
	}
	// The permutation pass is charged: the report prices the payload
	// movement and folds its raw I/O into the totals.
	if serial.rep.PermutePasses <= 0 || serial.rep.PayloadWords == 0 {
		t.Fatalf("permutation not charged: %+v", serial.rep)
	}
	if st.DiskFootprint > st.DiskReserved {
		t.Fatalf("records job footprint %d exceeds its envelope %d", st.DiskFootprint, st.DiskReserved)
	}
	if st.ArenaLeak != 0 {
		t.Fatalf("records job leaked %d arena keys", st.ArenaLeak)
	}
}

func TestSortPairsAllAlgorithms(t *testing.T) {
	m := newTestMachine(t, 256)
	n := 1024
	for _, alg := range []Algorithm{ThreePassMesh, ThreePassLMM, SevenPass, SevenPassMesh} {
		keys := workload.Uniform(n, 0, 9, algSeed(alg))
		payloads := workload.Perm(n, algSeed(alg)+100)
		pairSum := int64(0)
		for i := range keys {
			pairSum += keys[i] ^ payloads[i]
		}
		if _, err := m.SortPairs(keys, payloads, alg); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !slices.IsSorted(keys) {
			t.Fatalf("%v: keys not sorted", alg)
		}
		// The key-payload pairing must survive (checksum of XOR pairs).
		gotSum := int64(0)
		for i := range keys {
			gotSum += keys[i] ^ payloads[i]
		}
		if gotSum != pairSum {
			t.Fatalf("%v: records torn apart", alg)
		}
	}
}
