package repro

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestSortPairs drives sortWordRecords, the (key, one-word payload) path
// GroupBy runs, under Auto; TestSortPairsAllAlgorithms does the same under
// the four deterministic algorithms.
func TestSortPairs(t *testing.T) {
	assertSortPairs(t, newTestMachine(t, 256), Auto)
}

func TestSortPairsAllAlgorithms(t *testing.T) {
	m := newTestMachine(t, 256)
	for _, alg := range []Algorithm{ThreePassMesh, ThreePassLMM, SevenPass, SevenPassMesh} {
		assertSortPairs(t, m, alg)
	}
}

// assertSortPairs sorts tie-heavy pairs with alg: they must come out in
// stable key order with each key still paired with its payload.
func assertSortPairs(t *testing.T, m *Machine, alg Algorithm) {
	t.Helper()
	n := 3000
	keys := workload.Uniform(n, 0, 99, algSeed(alg)+4) // many duplicates: stability matters
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

	rep, err := m.sortWordRecords(keys, payloads, alg)
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	if rep.N != n {
		t.Fatalf("%v: report N = %d", alg, rep.N)
	}
	for i := range want {
		if keys[i] != want[i].k || payloads[i] != want[i].p {
			t.Fatalf("%v: record %d = (%d, %d), want (%d, %d) — stability or pairing broken",
				alg, i, keys[i], payloads[i], want[i].k, want[i].p)
		}
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

// TestSortRecordsWideKeys drives the wide-key path: keys spanning the full
// int64 range (negatives included) cannot share a word with the index, so
// the first round sorts by the top digit only.  The ≥ 2 rounds come from
// the 400-key clusters near MinInt64 and MaxInt64: each shares one digit,
// is larger than M = 256, and is not in key order, so it takes a second
// charged round.
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

// TestSortRecordsWideKeyRounds pins the wide-key path case by case: one
// packed round on the most significant digit, in-memory refinement of
// digit-tie runs of at most M records, and a second charged round only for
// a longer one.  Three-pass LMM's I/O depends on n alone, so pass counts
// compare exactly against plain sorts of n keys.
func TestSortRecordsWideKeyRounds(t *testing.T) {
	const n, alg = 2000, ThreePassLMM
	m := newTestMachine(t, 256)
	pp, err := planPacking(n)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.Sort(workload.Uniform(n, 0, 999, 1), alg)
	if err != nil {
		t.Fatal(err)
	}
	// Over a 64-bit span a digit covers the low 64 − keyBits bits; clustered
	// keys put cluster c's records on one shared digit, low bits random.
	low := int64(1) << (64 - pp.keyBits)
	rng := rand.New(rand.NewSource(41))
	clustered := func(cluster func(i int) int) []int64 {
		bases := map[int]int64{}
		keys := make([]int64, n)
		for i := range keys {
			c := cluster(i)
			if _, ok := bases[c]; !ok {
				bases[c] = int64(rng.Uint64()) &^ (low - 1)
			}
			keys[i] = bases[c] + rng.Int63n(low)
		}
		keys[0], keys[1] = math.MinInt64, math.MaxInt64 // pin the span to 64 bits
		return keys
	}
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63()
	}
	extremes := make([]int64, n)
	for i := range extremes {
		extremes[i] = []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1}[i%6]
	}
	for _, tc := range []struct {
		name   string
		keys   []int64
		rounds int
	}{
		{"random-63-bit", random, 1},
		{"mixed-sign-narrow-span", workload.Uniform(n, -1<<40, 1<<40, 3), 1},
		{"tie-runs-within-M", clustered(func(i int) int { return i % 9 }), 1}, // runs of ≈ 222
		{"tie-run-above-M", clustered(func(i int) int { // one run of 400, the rest unique
			if i%5 == 0 {
				return -1
			}
			return i
		}), 2},
		{"all-equal", slices.Repeat([]int64{-7}, n), 1},
		{"int64-extremes", extremes, 2}, // MinInt64 and MinInt64+1 share a digit, 667 of them
	} {
		t.Run(tc.name, func(t *testing.T) {
			payloads := genTestPayloads(n, 16, 7)
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(tc.keys[a], tc.keys[b]) })
			keys := slices.Clone(tc.keys)
			got := slices.Clone(payloads)
			rep, err := m.SortRecords(keys, got, alg)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range order {
				if keys[j] != tc.keys[i] || !bytes.Equal(got[j], payloads[i]) {
					t.Fatalf("record %d = (%d, %x), want input record %d (%d, %x)", j, keys[j], got[j], i, tc.keys[i], payloads[i])
				}
			}
			if rep.KeyRounds != tc.rounds || rep.KeyRounds > pp.rounds() {
				t.Fatalf("%d key rounds, want %d (bound %d)", rep.KeyRounds, tc.rounds, pp.rounds())
			}
			if tc.rounds == 1 {
				// In-memory refinement is uncharged: one plain sort of n.
				if rep.Passes != plain.Passes || rep.PaddedN != plain.PaddedN {
					t.Fatalf("one round charged %.4f passes over %d, a plain sort %.4f over %d",
						rep.Passes, rep.PaddedN, plain.Passes, plain.PaddedN)
				}
				return
			}
			// The refinement re-sorts only the tie run: more than one plain
			// sort of n, no more than two.
			before := m.Array().Stats()
			_, krep, err := m.sortKeyIndex(tc.keys, alg)
			if err != nil {
				t.Fatal(err)
			}
			if io := m.Array().Stats().Sub(before); normalizeStats(io) != normalizeStats(krep.IO) {
				t.Fatalf("report I/O %+v, array delta %+v", krep.IO, io)
			}
			// Rescaled to PaddedN, the folded passes price the summed I/O.
			if want := krep.IO.Passes(krep.PaddedN, m.Array().StripeWidth()); math.Abs(krep.Passes-want) > 1e-9 {
				t.Fatalf("refined key sort reports %.6f passes, its I/O prices %.6f", krep.Passes, want)
			}
			steps := func(r *Report) int64 { return r.IO.ReadSteps + r.IO.WriteSteps }
			if krep.Passes != rep.Passes || krep.Passes <= plain.Passes || krep.Passes > 2*plain.Passes ||
				steps(krep) <= steps(plain) || steps(krep) > 2*steps(plain) {
				t.Fatalf("refined key sort charged %.4f passes, %d steps; a plain sort %.4f, %d",
					krep.Passes, steps(krep), plain.Passes, steps(plain))
			}
		})
	}
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

// TestSortRecordsPayloadsOutliveTheRun: the returned payloads are views into
// the permutation's host buffer, so a later run on the same machine must
// not reuse it, and growing one payload must not write into its neighbours.
// Odd widths and empty payloads leave padding between records.
func TestSortRecordsPayloadsOutliveTheRun(t *testing.T) {
	m := newTestMachine(t, 256)
	oddPayloads := func(n int, seed int64) [][]byte {
		rng := rand.New(rand.NewSource(seed))
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte{}
			if i%5 != 0 {
				out[i] = make([]byte, 2*rng.Intn(12)+1)
				rng.Read(out[i])
			}
		}
		return out
	}
	n := 1500
	first := oddPayloads(n, 22)
	if _, err := m.SortRecords(workload.Uniform(n, 0, 999, 21), first, Auto); err != nil {
		t.Fatal(err)
	}
	kept := make([][]byte, n)
	for i, p := range first {
		kept[i] = bytes.Clone(p)
	}
	// The second input has the first one's widths, so a reused buffer would
	// fit it, and different bytes and keys.
	second := oddPayloads(n, 22)
	for _, p := range second {
		for k := range p {
			p[k] ^= 0xFF
		}
	}
	if _, err := m.SortRecords(workload.Uniform(n, 0, 999, 23), second, Auto); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !bytes.Equal(first[i], kept[i]) {
			t.Fatalf("payload %d changed under a later run: %x, want %x", i, first[i], kept[i])
		}
	}
	tail := bytes.Repeat([]byte{0xAA}, 9) // past any record's padding
	for i := range first {
		if grown := append(first[i], tail...); !bytes.Equal(grown, append(kept[i], tail...)) {
			t.Fatalf("append to payload %d = %x", i, grown)
		}
	}
	for i := range first {
		if !bytes.Equal(first[i], kept[i]) {
			t.Fatalf("payload %d changed by an append to a neighbour: %x, want %x", i, first[i], kept[i])
		}
	}
}

// TestSortRecordsErrorLeavesInputUntouched: a failed run must leave both
// slices as the caller passed them — keys in their order, every payload
// header with its data pointer, length and capacity — never keys
// reordered away from their payloads.  The failure lands before the key
// sort, at the permutation's scatter boundary, and inside the placement
// after it; each leaves the arena drained and no stripe live.
func TestSortRecordsErrorLeavesInputUntouched(t *testing.T) {
	n := 2000
	wantK := workload.Uniform(n, 0, 999, 8)
	wantP := genTestPayloads(n, 12, 3)
	errBoundary := errors.New("refused at the permutation's boundary")
	for _, tc := range []struct {
		name string
		arm  func(a *pdm.Array, cancel context.CancelFunc, fired *bool)
		want error
	}{
		{"canceled before the key sort", func(_ *pdm.Array, cancel context.CancelFunc, fired *bool) {
			cancel()
			*fired = true
		}, context.Canceled},
		{"refused at the scatter boundary", func(a *pdm.Array, _ context.CancelFunc, fired *bool) {
			a.SetPassHook(func(cp pdm.Checkpoint) error {
				if cp.Alg != "permute" {
					return nil
				}
				*fired = true
				return errBoundary
			})
		}, errBoundary},
		{"canceled in the placement", func(a *pdm.Array, cancel context.CancelFunc, fired *bool) {
			a.SetPassHook(func(cp pdm.Checkpoint) error {
				if cp.Alg == "permute" {
					*fired = true
					cancel()
				}
				return nil
			})
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, 256)
			defer m.Close()
			keys, payloads := slices.Clone(wantK), slices.Clone(wantP)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m.Array().BindContext(ctx)
			fired := false
			tc.arm(m.Array(), cancel, &fired)
			_, err := m.SortRecords(keys, payloads, Auto)
			if !fired {
				t.Fatal("the failure was never injected")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("failed sort returned %v, want %v", err, tc.want)
			}
			if !slices.Equal(keys, wantK) {
				t.Fatal("failed sort mutated the caller's keys")
			}
			for i, p := range payloads {
				if q := wantP[i]; unsafe.SliceData(p) != unsafe.SliceData(q) || len(p) != len(q) || cap(p) != cap(q) {
					t.Fatalf("failed sort replaced payload %d: %p/%d/%d, want %p/%d/%d",
						i, unsafe.SliceData(p), len(p), cap(p), unsafe.SliceData(q), len(q), cap(q))
				}
			}
			if m.Array().Arena().InUse() != 0 {
				t.Fatal("failed sort leaked arena memory")
			}
			noLiveStripes(t, m.Array())
		})
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
// records a 30-bit index field and a 32-bit key field, with every packed
// value below the MaxInt64 sentinel, and one record more a 31-bit index.
func TestPackingBoundary(t *testing.T) {
	pp, err := planPacking(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if pp.idxBits != 30 || pp.keyBits != 32 {
		t.Fatalf("2^30 records plan = %d idx bits, %d key bits; want 30 and 32", pp.idxBits, pp.keyBits)
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
	// One record more takes one key bit for the index, never corrupts it.
	pp2, err := planPacking(1<<30 + 1)
	if err != nil {
		t.Fatal(err)
	}
	if pp2.idxBits != 31 || pp2.keyBits != 31 {
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
		Memory:     6 * jobEnvelope(mem) / 5, // one job envelope
		DiskBudget: 8 << 20,                  // the payload spill needs more than 64x mem
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

// FuzzSortRecordsKeys drives SortRecords' key rounds on an M = 256 machine
// with fuzzer-shaped key sets.  The input decodes to a record count (up to
// 1536, so one digit-tie run can outgrow M), a cluster count, a spread —
// how many low bits vary inside a cluster — and one 8-byte top per
// cluster; the remaining bytes assign records to clusters (round-robin
// once they run out).  Clusters whose spread sits below the round's shift
// share a top digit, and tops anywhere in int64 make spans from a few bits
// to all 64.  Oracle: the stable reference order on keys and payloads,
// KeyRounds within packPlan.rounds(), and Report.IO equal to the array's
// stats delta.
func FuzzSortRecordsKeys(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\xe8\x02\x05\x00\x00\x00\x00\x00\x00\x00\x80\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := (int(next())<<8|int(next()))%1536 + 1
		clusters := int(next())%8 + 1
		mask := uint64(1)<<(int(next())%65) - 1
		tops := make([]uint64, clusters)
		for c := range tops {
			for k := 0; k < 8; k++ {
				tops[c] |= uint64(next()) << (8 * k)
			}
		}
		rng := rand.New(rand.NewSource(int64(tops[0])))
		keys := make([]int64, n)
		payloads := make([][]byte, n)
		for i := range keys {
			c := i % clusters
			if len(data) > 0 {
				c = int(next()) % clusters
			}
			keys[i] = int64(tops[c]&^mask | rng.Uint64()&mask)
			payloads[i] = binary.AppendUvarint(nil, uint64(i))
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })

		m := newTestMachine(t, 256)
		defer m.Close()
		gotK, gotP := slices.Clone(keys), slices.Clone(payloads)
		before := m.Array().Stats()
		rep, err := m.SortRecords(gotK, gotP, Auto)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range order {
			if gotK[j] != keys[i] || !bytes.Equal(gotP[j], payloads[i]) {
				t.Fatalf("record %d = (%d, %x), want input record %d (%d, %x)", j, gotK[j], gotP[j], i, keys[i], payloads[i])
			}
		}
		pp, err := planPacking(n)
		if err != nil {
			t.Fatal(err)
		}
		if rep.KeyRounds < 1 || rep.KeyRounds > pp.rounds() {
			t.Fatalf("%d key rounds, bound %d", rep.KeyRounds, pp.rounds())
		}
		if io := m.Array().Stats().Sub(before); normalizeStats(io) != normalizeStats(rep.IO) {
			t.Fatalf("report I/O %+v, array delta %+v", rep.IO, io)
		}
	})
}
