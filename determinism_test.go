package repro

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pdm"
	"repro/internal/workload"
)

// The worker pool must be invisible to everything but the wall clock: for
// any worker count, sorted output, pass counts, pdm.Stats, and the I/O
// trace are bit-identical.  These tests pit Workers=1 against Workers=8 on
// every algorithm with pipelining enabled, at sizes where the M-key chunks
// cross the pool's parallel grain, and run under -race in CI.

// normalizeStats zeroes the scheduling-dependent observability counters —
// pipeline hits/stalls and compute timings — which are documented as
// outside the determinism guarantee.  Everything else must match exactly.
func normalizeStats(s pdm.Stats) pdm.Stats {
	s.PrefetchHits, s.PrefetchStalls = 0, 0
	s.WriteBehindHits, s.WriteBehindStalls = 0, 0
	s.ComputeSections, s.ComputeWallNanos, s.ComputeBusyNanos = 0, 0, 0
	return s
}

type detRun struct {
	out   []int64
	rep   *Report
	stats pdm.Stats
	trace []pdm.TraceOp
}

func sortWithWorkers(t *testing.T, workers int, keys []int64, sort func(m *Machine, keys []int64) (*Report, error)) detRun {
	t.Helper()
	return sortAtMemory(t, 1024, workers, keys, sort)
}

// sortAtMemory runs one sort on an in-memory machine of the given M and
// worker count and captures everything the determinism guarantee covers.
func sortAtMemory(t *testing.T, mem, workers int, keys []int64,
	sort func(m *Machine, keys []int64) (*Report, error)) detRun {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Memory:   mem,
		Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	out := append([]int64(nil), keys...)
	m.Array().EnableTrace()
	rep, err := sort(m, out)
	if err != nil {
		t.Fatal(err)
	}
	assertArenaAirtight(t, m)
	return detRun{out: out, rep: rep, stats: normalizeStats(m.Array().Stats()), trace: m.Array().Trace()}
}

// assertArenaAirtight checks a machine after a successful run: every
// arena buffer handed back, the peak within the capacity the scheduler
// reserves for the job, and no reservation refused — the compute kernel
// borrows its scratch from the arena and, refused, would fall back to the
// introsort silently.
func assertArenaAirtight(t *testing.T, m *Machine) {
	t.Helper()
	ar, limit := m.Array().Arena(), m.Array().Config().ArenaCapacity()
	if ar.InUse() != 0 || ar.Peak() > limit || ar.Refused() != 0 {
		t.Fatalf("M = %d: arena in use %d after the run, peak %d of capacity %d, %d reservations refused (phases: %v)",
			m.Array().Mem(), ar.InUse(), ar.Peak(), limit, ar.Refused(), ar.PhasePeaks())
	}
}

func assertIdenticalRuns(t *testing.T, serial, parallel detRun) {
	t.Helper()
	if !slices.Equal(serial.out, parallel.out) {
		t.Fatal("sorted output differs between worker counts")
	}
	if serial.rep.Passes != parallel.rep.Passes ||
		serial.rep.ReadPasses != parallel.rep.ReadPasses ||
		serial.rep.WritePasses != parallel.rep.WritePasses ||
		serial.rep.FellBack != parallel.rep.FellBack ||
		serial.rep.PaddedN != parallel.rep.PaddedN {
		t.Fatalf("pass counts differ: serial %+v, parallel %+v", serial.rep, parallel.rep)
	}
	if serial.stats != parallel.stats {
		t.Fatalf("stats differ:\nserial   %+v\nparallel %+v", serial.stats, parallel.stats)
	}
	if !pdm.TracesEqual(serial.trace, parallel.trace) {
		t.Fatal("I/O traces differ between worker counts")
	}
	if normalizeStats(serial.rep.IO) != normalizeStats(parallel.rep.IO) {
		t.Fatal("report I/O deltas differ between worker counts")
	}
}

// sortWithBackend runs one file-backed sort on the named disk backend
// and captures everything the determinism guarantee covers.
func sortWithBackend(t *testing.T, backend string, workers int, keys []int64,
	sort func(m *Machine, keys []int64) (*Report, error)) detRun {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Memory:   1024,
		Dir:      t.TempDir(),
		Backend:  backend,
		Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	out := append([]int64(nil), keys...)
	m.Array().EnableTrace()
	rep, err := sort(m, out)
	if err != nil {
		t.Fatal(err)
	}
	assertArenaAirtight(t, m)
	return detRun{out: out, rep: rep, stats: normalizeStats(m.Array().Stats()), trace: m.Array().Trace()}
}

// TestBackendDeterminism proves the mmap backend is invisible to the cost
// model: for every algorithm, FileDisk and MmapDisk machines — at one and
// eight workers — produce bit-identical output, pass counts, stats, and
// I/O traces.  The zero-copy borrow paths (stream reads, records writes)
// only engage on the mmap side, so this pins their accounting against the
// staged ReadV/WriteV paths.
func TestBackendDeterminism(t *testing.T) {
	const mem = 1024
	algs := []Algorithm{
		MemOnePass, ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			n := 8 * mem
			if alg == MemOnePass {
				n = mem
			}
			keys := workload.Uniform(n-257, -1<<40, 1<<40, 11+algSeed(alg)<<8)
			sort := func(m *Machine, k []int64) (*Report, error) { return m.Sort(k, alg) }
			ref := sortWithBackend(t, BackendFile, 1, keys, sort)
			if !slices.IsSorted(ref.out) {
				t.Fatal("output not sorted")
			}
			for _, run := range []struct {
				backend string
				workers int
			}{
				{BackendFile, 8},
				{BackendMmap, 1},
				{BackendMmap, 8},
			} {
				got := sortWithBackend(t, run.backend, run.workers, keys, sort)
				assertIdenticalRuns(t, ref, got)
			}
		})
	}
}

// TestBackendDeterminismRadix covers the Section 7 RadixSort path.
func TestBackendDeterminismRadix(t *testing.T) {
	keys := workload.Uniform(9000, 0, (1<<20)-1, 77)
	sort := func(m *Machine, k []int64) (*Report, error) { return m.SortInts(k, 1<<20) }
	ref := sortWithBackend(t, BackendFile, 1, keys, sort)
	for _, backend := range []string{BackendMmap} {
		for _, workers := range []int{1, 8} {
			assertIdenticalRuns(t, ref, sortWithBackend(t, backend, workers, keys, sort))
		}
	}
}

// wideTieKeys returns n keys spanning all 64 bits whose most significant
// digit (at n's packing) ties in runs with different low bits: seven runs
// of about n/11 records and one of about 4n/11.  On an M-key machine with
// 3·M < n ≤ 11·M the short runs are refined in memory and the long one
// takes a second charged key round.
func wideTieKeys(n int, seed int64) []int64 {
	pp, _ := planPacking(n)
	low := int64(1) << (64 - pp.keyBits) // one digit's width over a 64-bit span
	rng := rand.New(rand.NewSource(seed))
	bases := make([]int64, 11)
	for c := range bases {
		bases[c] = int64(rng.Uint64()) &^ (low - 1)
	}
	for c := 1; c < 4; c++ {
		bases[c] = bases[0]
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = bases[i%len(bases)] + rng.Int63n(low)
	}
	keys[0], keys[1] = math.MinInt64, math.MaxInt64 // pin the span to 64 bits
	return keys
}

// TestBackendDeterminismRecords pins the records path, whose batched
// partition writes take the zero-copy borrow route on mmap disks: sorted
// keys, permuted payload bytes, and the full accounting must match the
// file backend bit for bit, for narrow keys (one exact round) and for wide
// keys whose digit ties are refined in memory and by a second round.
func TestBackendDeterminismRecords(t *testing.T) {
	n := 6000
	rng := rand.New(rand.NewSource(31))
	payloads := make([][]byte, n)
	for i := range payloads {
		p := make([]byte, rng.Intn(25))
		rng.Read(p)
		payloads[i] = p
	}
	type recRun struct {
		detRun
		payloads [][]byte
	}
	for _, tc := range []struct {
		name   string
		keys   []int64
		rounds int
	}{
		{"narrow", workload.Uniform(n, 0, 1<<16, 5), 1}, // narrow universe forces ties
		{"wide", wideTieKeys(n, 5), 2},
	} {
		run := func(backend string, workers int) recRun {
			m, err := NewMachine(MachineConfig{Memory: 1024, Dir: t.TempDir(),
				Backend: backend, Workers: workers,
				Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			k := append([]int64(nil), tc.keys...)
			p := make([][]byte, n)
			copy(p, payloads)
			m.Array().EnableTrace()
			rep, err := m.SortRecords(k, p, Auto)
			if err != nil {
				t.Fatal(err)
			}
			return recRun{
				detRun:   detRun{out: k, rep: rep, stats: normalizeStats(m.Array().Stats()), trace: m.Array().Trace()},
				payloads: p,
			}
		}
		ref := run(BackendFile, 1)
		if ref.rep.KeyRounds != tc.rounds {
			t.Fatalf("%s: %d key rounds, want %d", tc.name, ref.rep.KeyRounds, tc.rounds)
		}
		for _, cmp := range []recRun{run(BackendFile, 8), run(BackendMmap, 1), run(BackendMmap, 8)} {
			assertIdenticalRuns(t, ref.detRun, cmp.detRun)
			for i := range ref.payloads {
				if !bytes.Equal(ref.payloads[i], cmp.payloads[i]) {
					t.Fatalf("%s: payload %d differs between backends", tc.name, i)
				}
			}
			if ref.rep.PermutePasses != cmp.rep.PermutePasses ||
				ref.rep.PayloadWords != cmp.rep.PayloadWords ||
				ref.rep.KeyRounds != cmp.rep.KeyRounds {
				t.Fatalf("%s: records accounting differs: ref %+v, got %+v", tc.name, ref.rep, cmp.rep)
			}
		}
	}
}

func TestWorkerCountDeterminism(t *testing.T) {
	const mem = 1024
	cases := []struct {
		alg Algorithm
		n   int
	}{
		{ThreePassMesh, 32 * mem},
		{TwoPassMeshExpected, 8 * mem},
		{ThreePassLMM, 32 * mem},
		{TwoPassExpected, 8 * mem},
		{ThreePassExpected, 16 * mem},
		{SevenPass, 16 * mem},
		{SixPassExpected, 16 * mem},
		{SevenPassMesh, 16 * mem},
	}
	for _, tc := range cases {
		t.Run(tc.alg.String(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				keys := workload.Uniform(tc.n-257, -1<<40, 1<<40, seed+algSeed(tc.alg)<<8)
				sort := func(m *Machine, k []int64) (*Report, error) { return m.Sort(k, tc.alg) }
				serial := sortWithWorkers(t, 1, keys, sort)
				parallel := sortWithWorkers(t, 8, keys, sort)
				assertIdenticalRuns(t, serial, parallel)
				if !slices.IsSorted(serial.out) {
					t.Fatal("output not sorted")
				}
			}
		})
	}
}

func TestWorkerCountDeterminismRadix(t *testing.T) {
	keys := workload.Uniform(9000, 0, (1<<20)-1, 77)
	sort := func(m *Machine, k []int64) (*Report, error) { return m.SortInts(k, 1<<20) }
	serial := sortWithWorkers(t, 1, keys, sort)
	parallel := sortWithWorkers(t, 8, keys, sort)
	assertIdenticalRuns(t, serial, parallel)
}

// TestWorkerCountDeterminismRecords pits Workers=1 against Workers=8 on
// the full-record path: sorted keys, permuted payload bytes, pass counts,
// stats, and the I/O trace — key sort plus permutation — must be
// bit-identical.
func TestWorkerCountDeterminismRecords(t *testing.T) {
	assertRecordsRuns(t, 1024)
}

// assertRecordsRuns sorts 6·mem tie-heavy records with random payloads at
// M = mem with one and eight workers, once with narrow keys and once with
// wide keys whose digit ties take both refinements: the sorted keys and
// permuted payload bytes must equal a stable reference sort, and the two
// runs each other — payloads and the records accounting included.
func assertRecordsRuns(t *testing.T, mem int) {
	t.Helper()
	n := 6*mem - 144
	assertRecordKeyRuns(t, mem, workload.Uniform(n, 0, 1<<16, 5), 1) // narrow universe forces ties
	assertRecordKeyRuns(t, mem, wideTieKeys(n, 5), 2)
}

func assertRecordKeyRuns(t *testing.T, mem int, keys []int64, rounds int) {
	t.Helper()
	n := len(keys)
	rng := rand.New(rand.NewSource(31))
	payloads := make([][]byte, n)
	for i := range payloads {
		p := make([]byte, rng.Intn(25))
		rng.Read(p)
		payloads[i] = p
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	type recRun struct {
		detRun
		payloads [][]byte
	}
	run := func(workers int) recRun {
		m, err := NewMachine(MachineConfig{Memory: mem, Workers: workers,
			Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		k := append([]int64(nil), keys...)
		p := make([][]byte, n)
		copy(p, payloads)
		m.Array().EnableTrace()
		rep, err := m.SortRecords(k, p, Auto)
		if err != nil {
			t.Fatal(err)
		}
		assertArenaAirtight(t, m)
		return recRun{
			detRun:   detRun{out: k, rep: rep, stats: normalizeStats(m.Array().Stats()), trace: m.Array().Trace()},
			payloads: p,
		}
	}
	serial, parallel := run(1), run(8)
	for i, src := range order {
		if serial.out[i] != keys[src] || !bytes.Equal(serial.payloads[i], payloads[src]) {
			t.Fatalf("M = %d: record %d differs from the stable reference sort", mem, i)
		}
	}
	if serial.rep.KeyRounds != rounds {
		t.Fatalf("M = %d: %d key rounds, want %d", mem, serial.rep.KeyRounds, rounds)
	}
	assertIdenticalRuns(t, serial.detRun, parallel.detRun)
	for i := range serial.payloads {
		if !bytes.Equal(serial.payloads[i], parallel.payloads[i]) {
			t.Fatalf("M = %d: payload %d differs between worker counts", mem, i)
		}
	}
	if serial.rep.PermutePasses != parallel.rep.PermutePasses ||
		serial.rep.PayloadWords != parallel.rep.PayloadWords ||
		serial.rep.KeyRounds != parallel.rep.KeyRounds {
		t.Fatalf("M = %d: records accounting differs: serial %+v, parallel %+v", mem, serial.rep, parallel.rep)
	}
}

func TestWorkerCountDeterminismPairs(t *testing.T) {
	n := 8 * 1024
	keys := workload.Uniform(n, 0, 1<<16, 5) // narrow universe forces ties
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = int64(i) * 3
	}
	type pairRun struct {
		keys, payloads []int64
	}
	run := func(workers int) pairRun {
		m, err := NewMachine(MachineConfig{Memory: 1024, Workers: workers,
			Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		k := append([]int64(nil), keys...)
		p := append([]int64(nil), payloads...)
		if _, err := m.sortWordRecords(k, p, Auto); err != nil {
			t.Fatal(err)
		}
		return pairRun{k, p}
	}
	serial, parallel := run(1), run(8)
	if !slices.Equal(serial.keys, parallel.keys) || !slices.Equal(serial.payloads, parallel.payloads) {
		t.Fatal("sortWordRecords result differs between worker counts")
	}
	// Stability: equal keys keep their original payload order.
	for i := 1; i < n; i++ {
		if serial.keys[i] == serial.keys[i-1] && serial.payloads[i] < serial.payloads[i-1] {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

// kernelMems are two geometries for the compute kernel: at M = 1024 the
// (l, m)-merge's groups are a few hundred keys and its merge tails short,
// at M = 4096 they are a few thousand.
var kernelMems = []int{1024, 4096}

// TestKernelDeterminism runs every algorithm at both kernelMems at one and
// eight workers: the output is the slices.Sort oracle's, pass counts,
// stats, and I/O traces are bit-identical across worker counts, and the
// arena is airtight (assertArenaAirtight), so every pass helper's kernel
// borrows are priced (and race-clean under -race in CI).
func TestKernelDeterminism(t *testing.T) {
	algs := []Algorithm{
		MemOnePass, ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			for _, mem := range kernelMems {
				n := 8 * mem
				if alg == MemOnePass {
					n = mem
				}
				keys := workload.Uniform(n-257, -1<<40, 1<<40, 23+algSeed(alg)<<8)
				sort := func(m *Machine, k []int64) (*Report, error) { return m.Sort(k, alg) }
				assertKernelRuns(t, mem, keys, sort)
			}
		})
	}
}

// assertKernelRuns sorts keys at M = mem with one and eight workers and
// checks the output against slices.Sort, the two runs against each other,
// and each machine's arena (assertArenaAirtight).
func assertKernelRuns(t *testing.T, mem int, keys []int64, sort func(m *Machine, keys []int64) (*Report, error)) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	serial := sortAtMemory(t, mem, 1, keys, sort)
	if !slices.Equal(serial.out, want) {
		t.Fatalf("M = %d: output differs from slices.Sort", mem)
	}
	assertIdenticalRuns(t, serial, sortAtMemory(t, mem, 8, keys, sort))
}

// TestKernelDeterminismRadix covers the Section 7 RadixSort path (the
// external distribution sort, not the in-memory kernel of the same name).
func TestKernelDeterminismRadix(t *testing.T) {
	for _, mem := range kernelMems {
		keys := workload.Uniform(9*mem-216, 0, (1<<20)-1, 77)
		assertKernelRuns(t, mem, keys, func(m *Machine, k []int64) (*Report, error) { return m.SortInts(k, 1<<20) })
	}
}

// TestKernelDeterminismRecords pins the full-record path at both
// kernelMems.  The narrow universe forces ties, so this also proves the radix
// run formation preserves the stable order the permutation layer depends
// on.
func TestKernelDeterminismRecords(t *testing.T) {
	for _, mem := range kernelMems {
		assertRecordsRuns(t, mem)
	}
}
