// Benchmarks regenerating every experiment of `go run ./cmd/experiments` (E01–E16, one
// per theorem/lemma/observation of the paper, plus the design ablations
// A1–A3 and A5) and micro-benchmarks of the kernels.  Run:
//
//	go test -bench=. -benchmem
//
// The Benchmark bodies call the same internal/experiments generators as
// cmd/experiments, so `-bench` output and the printed tables cannot drift.
package repro

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memsort"
	"repro/internal/par"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/workload"
)

// benchTable runs a table generator b.N times, reporting rows/op so the
// benchmark fails loudly if a generator errors.
func benchTable(b *testing.B, gen func() (*report.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if tb.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE01LowerBound(b *testing.B) {
	benchTable(b, experiments.E01LowerBound)
}

func BenchmarkE02ThreePass1(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E02ThreePass1([]int{1024}) })
}

func BenchmarkE03ExpTwoPassMesh(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E03ExpTwoPassMesh(1024, 5) })
}

func BenchmarkE04ZeroOne(b *testing.B) {
	benchTable(b, experiments.E04ZeroOne)
}

func BenchmarkE05ThreePass2(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E05ThreePass2([]int{1024}) })
}

func BenchmarkE06ShuffleLemma(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E06ShuffleLemma(5) })
}

func BenchmarkE07ExpectedTwoPass(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E07ExpectedTwoPass([]int{1024}, 5) })
}

func BenchmarkE08ModColumnsort(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E08ModColumnsort(1024, 5) })
}

func BenchmarkE09ExpectedThreePass(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E09ExpectedThreePass(1024, 5) })
}

func BenchmarkE10SevenPass(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E10SevenPass([]int{1024}) })
}

func BenchmarkE11ExpectedSixPass(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E11ExpectedSixPass(1024, 5) })
}

func BenchmarkE12IntegerSort(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E12IntegerSort(1024, 5) })
}

func BenchmarkE13RadixSort(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E13RadixSort(1024) })
}

func BenchmarkE14Subblock(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E14Subblock(4096) })
}

func BenchmarkE15Summary(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E15Summary(4096) })
}

func BenchmarkE16Multiway(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.E16Multiway(1024) })
}

func BenchmarkAblationA1CleanupWindow(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.A1CleanupWindow(5) })
}

func BenchmarkAblationA2SnakeDirection(b *testing.B) {
	benchTable(b, func() (*report.Table, error) { return experiments.A2SnakeDirection(5) })
}

func BenchmarkAblationA3IntegerStriping(b *testing.B) {
	benchTable(b, experiments.A3IntegerStriping)
}

func BenchmarkAblationA5Detection(b *testing.B) {
	benchTable(b, experiments.A5Detection)
}

// --- direct algorithm benchmarks (keys/op at headline capacity) ---

func benchAlgorithm(b *testing.B, m int, n int, run func(a *pdm.Array, in *pdm.Stripe) (*core.Result, error)) {
	bsz := memsort.Isqrt(m)
	benchAlgorithmD(b, m, bsz/4, n, run)
}

func benchAlgorithmD(b *testing.B, m, d, n int, run func(a *pdm.Array, in *pdm.Stripe) (*core.Result, error)) {
	b.Helper()
	bsz := memsort.Isqrt(m)
	a, err := pdm.New(pdm.Config{D: d, B: bsz, Mem: m})
	if err != nil {
		b.Fatal(err)
	}
	data := workload.Perm(n, 1)
	in, err := a.NewStripe(n)
	if err != nil {
		b.Fatal(err)
	}
	if err := in.Load(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ResetStats()
		res, err := run(a, in)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ReadPasses, "read-passes")
			b.ReportMetric(res.WritePasses, "write-passes")
		}
		res.Out.Free()
	}
}

func BenchmarkSortThreePass1(b *testing.B) {
	benchAlgorithm(b, 1024, 1024*32, core.ThreePass1)
}

// BenchmarkSortThreePass2 runs ThreePass2 on (M, D) = (4096, 16) at
// l = N/M = 32, 17 and 3: the capacity √M/2 where a merge batch is whole
// D-block steps anyway, and two run counts that do not divide D.
func BenchmarkSortThreePass2(b *testing.B) {
	for _, l := range []int{32, 17, 3} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			benchAlgorithm(b, 4096, l*4096, core.ThreePass2)
		})
	}
}

func BenchmarkSortExpectedTwoPass(b *testing.B) {
	n1 := plan.Capacity(1024, 1, plan.Exp2) / 1024
	benchAlgorithm(b, 1024, n1*1024, core.ExpectedTwoPass)
}

func BenchmarkSortSevenPass(b *testing.B) {
	benchAlgorithm(b, 1024, 1024*1024, core.SevenPass)
}

func BenchmarkSortSevenPassMesh(b *testing.B) {
	benchAlgorithm(b, 1024, 1024*1024, core.SevenPassMesh)
}

func BenchmarkSortExpectedSixPass(b *testing.B) {
	// D = 4 so l = 4 superruns reach full disk occupancy while staying
	// inside the per-segment ExpectedTwoPass window (exactly 6 passes).
	benchAlgorithmD(b, 1024, 4, 16*1024, core.ExpectedSixPass)
}

func BenchmarkSortRadix(b *testing.B) {
	benchAlgorithm(b, 1024, 1024*256, func(a *pdm.Array, in *pdm.Stripe) (*core.Result, error) {
		return core.RadixSort(a, in, 1<<30)
	})
}

func BenchmarkSortMultiwayBaseline(b *testing.B) {
	benchAlgorithm(b, 1024, 1024*32, baseline.MultiwayMergeSort)
}

func BenchmarkSortColumnsortBaseline(b *testing.B) {
	a, err := pdm.New(pdm.Config{D: 8, B: 16, Mem: 4096})
	if err != nil {
		b.Fatal(err)
	}
	r, s, err := baseline.ColumnsortGeometry(4096, 16)
	if err != nil {
		b.Fatal(err)
	}
	data := workload.Perm(r*s, 1)
	in, err := a.NewStripe(r * s)
	if err != nil {
		b.Fatal(err)
	}
	if err := in.Load(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * r * s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ResetStats()
		res, err := baseline.Columnsort(a, in, r, s)
		if err != nil {
			b.Fatal(err)
		}
		res.Out.Free()
	}
}

// --- streaming pipeline benchmarks ---
//
// One read-sort-write pass over N keys, as a synchronous ReadAt/WriteAt
// loop versus stream.Pipe, across disk backends.  The pass accounting is
// identical by construction; the wall-clock difference is the overlap win.
//
// "mem" and "file" are CPU-speed backends (MemDisk memcpy, page-cached
// files): they check that the pipeline costs ~nothing when there is no
// latency to hide — on a single-CPU host there is nothing to overlap with.
// "slowfile" adds a modeled 50µs per-block device latency to the file
// disks (pdm.LatencyDisk); that wait parks goroutines, so prefetch and
// write-behind hide it just as on real hardware, and Pipe pulls ahead.

// slowFileDisks is the "slowfile" backend: file disks with a modeled 50µs
// per-block device latency.
func slowFileDisks(b *testing.B, cfg pdm.Config) []pdm.Disk {
	b.Helper()
	dir := b.TempDir()
	disks := make([]pdm.Disk, cfg.D)
	for i := range disks {
		fd, err := pdm.NewFileDisk(fmt.Sprintf("%s/disk%04d.bin", dir, i), cfg.B)
		if err != nil {
			b.Fatal(err)
		}
		disks[i] = pdm.LatencyDisk{Disk: fd, PerBlock: 50 * time.Microsecond}
	}
	return disks
}

func benchPassArray(b *testing.B, backend string, pipelined bool) *pdm.Array {
	b.Helper()
	const m = 4096 // B = 64, D = 16
	cfg := pdm.Config{D: 16, B: 64, Mem: m}
	if pipelined {
		cfg.Pipeline = pdm.PipelineConfig{Prefetch: 16, WriteBehind: 8}
	}
	var (
		a   *pdm.Array
		err error
	)
	switch backend {
	case "mem":
		a, err = pdm.New(cfg)
	case "file":
		a, err = pdm.NewFileArray(cfg, b.TempDir())
	case "slowfile":
		a, err = pdm.NewWithDisks(cfg, slowFileDisks(b, cfg))
	default:
		b.Fatalf("unknown backend %q", backend)
	}
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func benchPass(b *testing.B, backend string, pipelined bool) {
	b.Helper()
	const (
		m = 4096
		n = 64 * m
	)
	a := benchPassArray(b, backend, pipelined)
	defer a.Close()
	src, err := a.NewStripe(n)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.Load(workload.Perm(n, 11)); err != nil {
		b.Fatal(err)
	}
	dst, err := a.NewStripe(n)
	if err != nil {
		b.Fatal(err)
	}
	buf := a.Arena().MustAlloc(m)
	defer a.Arena().Free(buf)
	sortChunk := func(off int, chunk []int64) error {
		memsort.Keys(chunk)
		return nil
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pipelined {
			if err := stream.Pipe(src, dst, buf, sortChunk); err != nil {
				b.Fatal(err)
			}
		} else {
			for off := 0; off < n; off += m {
				if err := src.ReadAt(off, buf); err != nil {
					b.Fatal(err)
				}
				memsort.Keys(buf)
				if err := dst.WriteAt(off, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	if st := a.Stats(); pipelined {
		b.ReportMetric(st.Overlap(), "overlap")
	}
}

func BenchmarkPassMemDiskSyncLoop(b *testing.B)  { benchPass(b, "mem", false) }
func BenchmarkPassMemDiskPipe(b *testing.B)      { benchPass(b, "mem", true) }
func BenchmarkPassFileDiskSyncLoop(b *testing.B) { benchPass(b, "file", false) }
func BenchmarkPassFileDiskPipe(b *testing.B)     { benchPass(b, "file", true) }
func BenchmarkPassSlowDiskSyncLoop(b *testing.B) { benchPass(b, "slowfile", false) }
func BenchmarkPassSlowDiskPipe(b *testing.B)     { benchPass(b, "slowfile", true) }

// The same comparison at the whole-algorithm level: ThreePass2 on file
// disks with modeled device latency, synchronous versus pipelined.
func benchThreePass2File(b *testing.B, pipe pdm.PipelineConfig) {
	b.Helper()
	const m = 1024
	cfg := pdm.Config{D: 8, B: 32, Mem: m, Pipeline: pipe}
	a, err := pdm.NewWithDisks(cfg, slowFileDisks(b, cfg))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	n := m * 32
	in, err := a.NewStripe(n)
	if err != nil {
		b.Fatal(err)
	}
	if err := in.Load(workload.Perm(n, 13)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ThreePass2(a, in)
		if err != nil {
			b.Fatal(err)
		}
		res.Out.Free()
	}
}

func BenchmarkSortThreePass2SlowDiskSync(b *testing.B) {
	benchThreePass2File(b, pdm.PipelineConfig{})
}

func BenchmarkSortThreePass2SlowDiskPipelined(b *testing.B) {
	benchThreePass2File(b, pdm.PipelineConfig{Prefetch: 8, WriteBehind: 8})
}

// The two scattering routes where a step costs time: on latency disks a
// request waits one service time per parallel step, so wall clock follows
// the charged steps (reported as steps/op) — which is what a scatter that
// keeps all D disks busy buys on a real disk array.
func slowDiskMachine(b *testing.B) *Machine {
	b.Helper()
	m, err := NewMachine(MachineConfig{Memory: 4096, Dir: b.TempDir(), BlockLatency: 50 * time.Microsecond,
		Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m
}

func BenchmarkSortRecordsSlowDisk(b *testing.B) {
	const n = 16 << 10
	m := slowDiskMachine(b)
	keys := workload.Uniform(n, 0, 1<<30, 17)
	blob := make([]byte, 64*n)
	for i := range blob {
		blob[i] = byte(i * 131)
	}
	payloads := make([][]byte, n)
	kbuf, pbuf := make([]int64, n), make([][]byte, n)
	for i := range payloads {
		payloads[i] = blob[64*i : 64*(i+1)]
	}
	b.SetBytes(72 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(kbuf, keys)
		copy(pbuf, payloads)
		rep, err := m.SortRecords(kbuf, pbuf, ThreePassLMM)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.IO.ReadSteps+rep.IO.WriteSteps), "steps/op")
		b.ReportMetric(float64(rep.IO.WriteSteps), "write-steps/op")
	}
}

func BenchmarkGroupByPartitionSlowDisk(b *testing.B) {
	const n = 256 << 10
	m := slowDiskMachine(b)
	keys := workload.FewDistinct(n, n/4, 19)
	b.SetBytes(16 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := m.GroupBy(keys, keys, n/4)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ScenarioRoute != "partition" {
			b.Fatalf("ran the %q route, want partition", rep.ScenarioRoute)
		}
		b.ReportMetric(float64(rep.IO.ReadSteps+rep.IO.WriteSteps), "steps/op")
		b.ReportMetric(float64(rep.IO.WriteSteps), "write-steps/op")
	}
}

// fileBenchMachine is the machine and input of bench's file workloads:
// n keys of the given kind (4Mi uniform for sort-file and topk-file, 512Ki
// zipf for records-file), file disks at M = 64Ki, pipeline 2/2.
func fileBenchMachine(b *testing.B, kind string, n int) (*Machine, []int64) {
	b.Helper()
	keys, err := (&WorkloadSpec{Kind: kind, N: n, Seed: 401}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(MachineConfig{Memory: 65536, Dir: b.TempDir(), Backend: BackendFile,
		Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() }) //nolint:errcheck // bench teardown
	b.SetBytes(8 * int64(n))
	return m, keys
}

// ioSyscalls returns the process's read- plus write-family syscall count
// (syscr + syscw in /proc/self/io), and false where that file is missing
// (off Linux).
func ioSyscalls() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	var n int64
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, _ := strings.Cut(line, ":")
		if key == "syscr" || key == "syscw" {
			v, _ := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			n += v
		}
	}
	return n, true
}

// reportSyscalls reports the read and write syscalls per op since start,
// which ioSyscalls took before the timed loop: how many blocks each disk
// call moves shows here.
func reportSyscalls(b *testing.B, start int64, ok bool) {
	if end, ok2 := ioSyscalls(); ok && ok2 {
		b.ReportMetric(float64(end-start)/float64(b.N), "syscalls/op")
	}
}

// BenchmarkSortFile is bench's sort-file shape in-process — three-pass LMM
// on fileBenchMachine — so a CPU profile (-cpuprofile) splits an op into
// its uncharged load and unload (Stripe.LoadPadded / UnloadInto) and the
// three charged passes.
func BenchmarkSortFile(b *testing.B) {
	m, keys := fileBenchMachine(b, "uniform", 4<<20)
	buf := make([]int64, len(keys))
	b.ResetTimer()
	sys, ok := ioSyscalls()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		if _, err := m.Sort(buf, ThreePassLMM); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSyscalls(b, sys, ok)
	if !memsort.IsSorted(buf) {
		b.Fatal("not sorted")
	}
}

// BenchmarkTopKFile is bench's topk-file shape in-process — TopK(K = 100)
// on fileBenchMachine — so a CPU profile (-cpuprofile) splits an op into
// its uncharged selection front (checkKeys + drawThreshold), the
// uncharged load that runs beside it on its own goroutine, and the
// charged filter pass.
func BenchmarkTopKFile(b *testing.B) {
	m, keys := fileBenchMachine(b, "uniform", 4<<20)
	b.ResetTimer()
	sys, ok := ioSyscalls()
	for i := 0; i < b.N; i++ {
		_, rep, err := m.TopK(keys, 100)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ScenarioRoute != "filter" || rep.FellBack {
			b.Fatalf("ran the %q route (fell back: %v), want filter", rep.ScenarioRoute, rep.FellBack)
		}
	}
	b.StopTimer()
	reportSyscalls(b, sys, ok)
}

// BenchmarkSortRecordsFile is bench's records-file shape in-process —
// SortRecords with three-pass LMM of 512Ki zipf-keyed records carrying
// 64-byte payloads, on fileBenchMachine — so a CPU profile (-cpuprofile)
// splits an op into the key sort (sortKeyIndex) and the payload
// permutation (records.Permute).  Zipf values span 63 bits, so this is
// the wide-key path.
func BenchmarkSortRecordsFile(b *testing.B) {
	const n, width = 512 << 10, 64
	m, keys := fileBenchMachine(b, "zipf", n)
	blob := make([]byte, n*width)
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = blob[i*width : (i+1)*width : (i+1)*width]
		binary.LittleEndian.PutUint64(payloads[i], uint64(i))
	}
	kbuf, pbuf := make([]int64, n), make([][]byte, n)
	var rep *Report
	b.SetBytes((8 + width) * n)
	b.ResetTimer()
	sys, ok := ioSyscalls()
	for i := 0; i < b.N; i++ {
		copy(kbuf, keys)
		copy(pbuf, payloads)
		var err error
		if rep, err = m.SortRecords(kbuf, pbuf, ThreePassLMM); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSyscalls(b, sys, ok)
	b.ReportMetric(rep.Passes+rep.PermutePasses, "passes/op")
	b.ReportMetric(float64(rep.KeyRounds), "key-rounds/op")
	if !memsort.IsSorted(kbuf) {
		b.Fatal("keys not sorted")
	}
}

// --- worker-pool compute benchmarks ---
//
// Each pair runs the same kernel or algorithm with Workers=1 versus
// Workers=NumCPU; the outputs are bit-identical by construction (the
// determinism tests assert it), so the wall-clock delta is pure compute
// parallelism.  On a single-CPU host the pairs are within noise of each
// other; the speedup materializes with the cores.

func workerWidths() []int {
	w := runtime.NumCPU()
	if w < 4 {
		w = 4 // exercise the parallel paths even on small hosts
	}
	return []int{1, w}
}

// BenchmarkWorkersRunFormation is the run-formation kernel: sorting one
// memory load, exactly what pass 1 of every algorithm does per chunk.
func BenchmarkWorkersRunFormation(b *testing.B) {
	const n = 1 << 20
	src := workload.Perm(n, 21)
	buf := make([]int64, n)
	scratch := make([]int64, n)
	for _, w := range workerWidths() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := par.New(w)
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				pool.SortKeysScratch(buf, scratch)
			}
			if !memsort.IsSorted(buf) {
				b.Fatal("not sorted")
			}
		})
	}
}

// BenchmarkWorkersMultiMerge is the k-way merge kernel: the loser tree's
// output range cut by splitters across the workers.
func BenchmarkWorkersMultiMerge(b *testing.B) {
	const (
		k   = 64
		per = 1 << 14
	)
	lanes := make([][]int64, k)
	for i := range lanes {
		lane := workload.Uniform(per, 0, 1<<30, int64(i))
		memsort.Keys(lane)
		lanes[i] = lane
	}
	dst := make([]int64, k*per)
	for _, w := range workerWidths() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := par.New(w)
			b.SetBytes(int64(8 * k * per))
			for i := 0; i < b.N; i++ {
				pool.MultiMerge(dst, lanes)
			}
		})
	}
}

// BenchmarkWorkersEndToEnd is the whole-algorithm pair on a compute-
// dominated configuration: ThreePass2 at M = 65536 on latency-modeled file
// disks with the pipeline hiding the I/O, so the in-memory sorts and
// merges dominate the wall clock.
func BenchmarkWorkersEndToEnd(b *testing.B) {
	const m = 65536 // B = 256, D = 64
	for _, workers := range workerWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := pdm.Config{D: 64, B: 256, Mem: m,
				Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2},
				Workers:  workers}
			dir := b.TempDir()
			disks := make([]pdm.Disk, cfg.D)
			for i := range disks {
				fd, ferr := pdm.NewFileDisk(fmt.Sprintf("%s/disk%04d.bin", dir, i), cfg.B)
				if ferr != nil {
					b.Fatal(ferr)
				}
				disks[i] = pdm.LatencyDisk{Disk: fd, PerBlock: 20 * time.Microsecond}
			}
			a, err := pdm.NewWithDisks(cfg, disks)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			n := 16 * m
			in, err := a.NewStripe(n)
			if err != nil {
				b.Fatal(err)
			}
			if err := in.Load(workload.Perm(n, 23)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.ThreePass2(a, in)
				if err != nil {
					b.Fatal(err)
				}
				res.Out.Free()
			}
			b.StopTimer()
			st := a.Stats()
			b.ReportMetric(st.WorkerUtilization(workers), "utilization")
		})
	}
}

// --- kernel micro-benchmarks ---

func BenchmarkKernelSort(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := workload.Perm(n, 2)
			buf := make([]int64, n)
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				memsort.Keys(buf)
			}
		})
	}
}

func BenchmarkKernelLoserTree(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			per := 1 << 12
			lanes := make([][]int64, k)
			for i := range lanes {
				lane := workload.Uniform(per, 0, 1<<30, int64(i))
				memsort.Keys(lane)
				lanes[i] = lane
			}
			dst := make([]int64, k*per)
			b.SetBytes(int64(8 * k * per))
			for i := 0; i < b.N; i++ {
				memsort.MultiMerge(dst, lanes)
			}
		})
	}
}

func BenchmarkFacadeSortAuto(b *testing.B) {
	m, err := NewMachine(MachineConfig{Memory: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	src := workload.Perm(4096*16, 5)
	keys := make([]int64, len(src))
	b.SetBytes(int64(8 * len(src)))
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		if _, err := m.Sort(keys, Auto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitJournaled is one inline job through a journaled,
// file-backed scheduler — serve-durable's shape without the HTTP door:
// Submit (input page file, then the record, both fsynced) → Wait.  B/op is
// the tripwire: the scheduler keeps the one copy of the input the caller
// handed it, so an allocation that scales with the key count on this path
// is the input being re-encoded or copied.  journal-B/op is what the log
// itself grew by per job (records only; the input file is beside it).
func BenchmarkSubmitJournaled(b *testing.B) {
	const mem = 16384 // bench's serve-durable geometry
	s, err := NewScheduler(SchedulerConfig{Memory: 64 * mem, JobMemory: mem, Dir: b.TempDir(), JournalDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	src := workload.Uniform(4*mem, -1<<40, 1<<40, 7) // 64Ki keys
	keys := make([]int64, len(src))
	var journalBytes, last int64
	b.SetBytes(int64(8 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src) // the job sorts its input in place
		id, err := s.Submit(JobSpec{Keys: keys})
		if err != nil {
			b.Fatal(err)
		}
		if st, err := s.Wait(context.Background(), id); err != nil || st.State != JobDone {
			b.Fatalf("job %d: %q %q %v", id, st.State, st.Error, err)
		}
		now := s.Stats().JournalBytes
		journalBytes += max(now-last, 0) // a compaction shrinks the gauge; count growth only
		last = now
	}
	b.ReportMetric(float64(journalBytes)/float64(b.N), "journal-B/op")
}
