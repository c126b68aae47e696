// Package repro is a from-scratch reproduction of "PDM Sorting Algorithms
// That Take A Small Number Of Passes" (Rajasekaran & Sen, IPPS 2005): a
// Parallel Disk Model simulator plus every sorting algorithm the paper
// introduces or compares against, with I/O accounted in the paper's
// currency — passes over the data.
//
// The facade in this package is what a downstream user imports:
//
//	m, _ := repro.NewMachine(repro.MachineConfig{Memory: 1 << 20, Disks: 64})
//	report, _ := m.Sort(keys, repro.Auto)
//	fmt.Printf("sorted %d keys in %.2f passes with %s\n",
//		report.N, report.Passes, report.Algorithm)
//
// The underlying pieces (the pdm simulator, the individual algorithms, the
// baselines, the zero-one principle machinery) live in internal/ packages
// and are exercised by the experiment harness that regenerates every
// empirical claim: go run ./cmd/experiments.
package repro

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/par"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/wire"
)

// Algorithm selects which of the paper's sorting algorithms to run.  It is
// the repository's one algorithm identity (internal/core's Alg): its text
// form is the CLI/service short name ("lmm3", "exp2", …; the table behind
// ParseAlgorithm lists them) and String names the algorithm as in the
// paper.
type Algorithm = core.Alg

const (
	// Auto picks the algorithm the cost model (internal/plan) predicts
	// cheapest for the input: it weighs each candidate's pass count against
	// the padded length its geometry forces — the one-pass memory-load sort
	// when N ≤ M, ExpectedTwoPass, ThreePass2, and so on up to SevenPass.
	// The choice is deterministic for a given (N, M, D);
	// Machine.Explain shows the ranked table behind it.
	Auto = core.AlgAuto
	// ThreePassMesh is the Section 3.1 mesh algorithm (3 passes, ≤ M·√M).
	ThreePassMesh = core.AlgMesh3
	// TwoPassMeshExpected is the Section 3.2 variant (2 passes w.h.p.).
	TwoPassMeshExpected = core.AlgMesh2e
	// ThreePassLMM is the Section 4 LMM algorithm (3 passes, ≤ M·√M).
	ThreePassLMM = core.AlgLMM3
	// TwoPassExpected is the Section 5 algorithm (2 passes w.h.p.).
	TwoPassExpected = core.AlgExp2
	// ThreePassExpected is the Section 6 algorithm (3 passes w.h.p.,
	// ~M^1.75 keys).
	ThreePassExpected = core.AlgExp3
	// SevenPass is the Section 6.1 algorithm (7 passes, ≤ M² keys).
	SevenPass = core.AlgSeven
	// SixPassExpected is the Section 6.2 algorithm (6 passes w.h.p.).
	SixPassExpected = core.AlgSix
	// SevenPassMesh is the mesh-based seven-pass variant realizing the
	// paper's Section 6.2 Remark (mesh superruns under the LMM outer
	// merge; 7 passes, ≤ M² keys).
	SevenPassMesh = core.AlgSevenMesh
	// MemOnePass is the planner's degenerate regime: N ≤ M sorts in a
	// single load-sort-store (one read pass, one write pass).  The paper
	// takes this case as given; Auto chooses it whenever the input fits in
	// internal memory instead of running a multi-pass algorithm on one run.
	MemOnePass = core.AlgOne
)

// ParseAlgorithm maps the CLI/service short names (auto, one, mesh3,
// mesh2e, lmm3, exp2, exp3, seven, six, sevenmesh, radix) to Algorithm
// values.  "radix" names the Section 7 RadixSort, which JobSpec.Alg and
// pdmsort -alg accept; Machine.SortInts is its entry point, not Sort.
func ParseAlgorithm(name string) (Algorithm, error) {
	alg, err := core.ParseAlg(name)
	if err != nil {
		return alg, fmt.Errorf("repro: %w", err)
	}
	return alg, nil
}

// MachineConfig describes the simulated PDM.
type MachineConfig struct {
	// Memory is the internal memory M in keys; it must be a perfect square
	// (the paper's algorithms use block size B = √M).
	Memory int
	// Disks is D; it must divide √M (so M = C·D·B with integer C).
	// Zero selects √M/4, the paper's running example C = 4.
	Disks int
	// Dir, when non-empty, backs each disk with a real file in that
	// directory (one pread/pwrite per run of consecutive blocks a disk
	// moves, or a mapped copy per block; one extent per disk to load and
	// unload); otherwise in memory.
	Dir string
	// Backend selects the file-backed disk implementation when Dir is set:
	// BackendFile (the default, read/write syscalls through pdm.FileDisk)
	// or BackendMmap (memory-mapped pdm.MmapDisk with zero-copy views on
	// the streaming paths).  Both produce byte-identical scratch files and
	// bit-identical reports; only wall-clock differs.  Must be empty for
	// in-memory machines.
	Backend string
	// Pipeline configures the streaming I/O layer: depths > 0 overlap
	// prefetch and write-behind with computation on every pass.  Pass
	// accounting is unaffected — the PDM cost model charges the same steps
	// whether or not a transfer was overlapped — but wall-clock time on
	// file-backed disks improves and Report gains overlap metrics.
	Pipeline PipelineConfig
	// Workers sizes the compute worker pool every in-memory kernel runs on
	// (run formation sorts, partitioned k-way merges, shuffles, radix
	// counting); zero selects GOMAXPROCS.  Output, pass counts, statistics,
	// and I/O traces are bit-identical for any worker count — parallelism
	// changes wall-clock only — and Report gains compute metrics.
	Workers int
	// BlockLatency, when positive, decorates every disk with a fixed
	// per-block service time (pdm.LatencyDisk), modeling positioning and
	// transfer latency on top of either backend.  Pass accounting is
	// unaffected; wall-clock slows, which the scheduler tests use to
	// exercise cancellation promptness and the benchmarks to show overlap.
	BlockLatency time.Duration
	// ReuseDisks opens the disk files already in Dir instead of truncating
	// them — the resume path: a machine rebuilt over the scratch a crashed
	// or suspended job left behind, so a checkpoint manifest can re-adopt
	// its stripes.  Requires Dir and the file backend.
	ReuseDisks bool
}

// PipelineConfig sizes the streaming I/O layer.  Depths are in slots of
// two stripe rows (2·Disks·√Memory keys each): Prefetch is how many slots
// a streamed read may fill ahead of the consumer, WriteBehind how many a
// streamed write may hold behind the producer.  The staging comes out of
// the machine's metered internal memory, on top of the algorithms' own
// envelope.  Zero depths mean fully synchronous I/O.
type PipelineConfig = pdm.PipelineConfig

// Disk backend names for MachineConfig.Backend, SchedulerConfig.Backend,
// and JobSpec.Backend (internal/pdm's Backend values, parsed in one place
// when the machine geometry is resolved).
const (
	// BackendFile is the read/write-syscall file backend (pdm.FileDisk).
	BackendFile = string(pdm.BackendFile)
	// BackendMmap is the memory-mapped file backend (pdm.MmapDisk).
	BackendMmap = string(pdm.BackendMmap)
)

// Machine is a PDM plus the paper's algorithm suite.
type Machine struct {
	a       *pdm.Array
	backend pdm.Backend
	cfg     MachineConfig
	// scratch is the most scratch, in keys, any scheduler job on this
	// machine has held: what its disk files occupy while it is idle.
	scratch int
}

// planAlpha is the confidence parameter α the planner's capacity windows
// assume for the probabilistic algorithms (failure probability ≤ M^−α).
const planAlpha = 1

// ErrKeyRange is returned when input keys collide with the reserved
// sentinel (MaxInt64, used for padding partial blocks).
var ErrKeyRange = errors.New("repro: keys must be smaller than MaxInt64")

// NewMachine builds a Machine from cfg.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	return newMachine(cfg, nil)
}

// newMachine is NewMachine with the worker pool optionally attached to a
// shared cross-job limiter — the constructor the scheduler builds per-job
// machines with.
func newMachine(cfg MachineConfig, lim *par.Limiter) (*Machine, error) {
	pcfg, backend, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	pcfg.Limiter = lim
	var disks []pdm.Disk
	switch {
	case !cfg.ReuseDisks:
		disks, err = backend.NewDisks(cfg.Dir, pcfg.D, pcfg.B)
	case backend != pdm.BackendFile:
		return nil, fmt.Errorf("repro: ReuseDisks requires Dir and the file backend, not %q", backend)
	default:
		disks, err = pdm.OpenFileDisks(cfg.Dir, pcfg.D, pcfg.B)
	}
	if err != nil {
		return nil, err
	}
	if cfg.BlockLatency > 0 {
		for i, d := range disks {
			disks[i] = pdm.LatencyDisk{Disk: d, PerBlock: cfg.BlockLatency}
		}
	}
	a, err := pdm.NewWithDisks(pcfg, disks)
	if err != nil {
		return nil, err
	}
	return &Machine{a: a, backend: backend, cfg: cfg}, nil
}

// resolveConfig validates cfg and resolves it to the pdm configuration (no
// disks yet) and the disk backend kind.  It is the one place the Backend
// selector string is parsed.  The scheduler uses it at submit time to size
// a job's memory envelope before any resources exist.
func resolveConfig(cfg MachineConfig) (pcfg pdm.Config, backend pdm.Backend, err error) {
	b := memsort.Isqrt(cfg.Memory)
	if b*b != cfg.Memory {
		return pcfg, "", fmt.Errorf("repro: Memory = %d is not a perfect square", cfg.Memory)
	}
	d := cfg.Disks
	if d == 0 {
		d = max(b/4, 1)
	}
	if b%d != 0 {
		return pcfg, "", fmt.Errorf("repro: Disks = %d does not divide sqrt(Memory) = %d", d, b)
	}
	if backend, err = pdm.ParseBackend(cfg.Backend, cfg.Dir != ""); err != nil {
		return pcfg, "", fmt.Errorf("repro: %w", err)
	}
	return pdm.Config{D: d, B: b, Mem: cfg.Memory, Pipeline: cfg.Pipeline,
		Workers: cfg.Workers}, backend, nil
}

// Array exposes the underlying PDM array for callers that need direct
// access: statistics, stripes, and cancellation — Array().BindContext(ctx)
// makes every run that follows on this machine abort at its next I/O once
// ctx is canceled, with the arena drained.
func (m *Machine) Array() *pdm.Array { return m.a }

// Close releases the disks (removing nothing; file-backed disks stay on
// disk for inspection).
func (m *Machine) Close() error { return m.a.Close() }

// Report describes one sorting run (see internal/wire for the fields);
// Algorithm serializes as its short name.
type Report = wire.Report

// Capacity returns the largest number of keys the given algorithm sorts on
// this machine within its advertised pass count (for the probabilistic
// algorithms, the largest size whose Lemma 4.2 window still fits, i.e. the
// reliable regime at the machine's α).
func (m *Machine) Capacity(alg Algorithm) int {
	if alg == Auto {
		return m.a.Mem() * m.a.Mem()
	}
	return plan.Capacity(m.a.Mem(), planAlpha, alg)
}

// Plan returns the algorithm Auto would choose for n keys: the candidate
// the cost model predicts cheapest, accounting for each algorithm's pass
// count and the padding its geometry forces.  The choice is deterministic
// — independent of calibration, worker count, and backend — so Auto runs
// are reproducible; Explain exposes the full ranked table with calibrated
// wall-time predictions.
func (m *Machine) Plan(n int) Algorithm {
	return planFor(m.a.Mem(), m.a.D(), n)
}

// planFor is Plan as a pure function of the geometry, shared with the
// scheduler's submit-time planning.
func planFor(mem, d, n int) Algorithm {
	chosen, err := plan.Choose(planShape(mem, d, planAlpha), plan.Workload{N: n})
	if err != nil {
		// Beyond every capacity; Sort will fail with the M² message.  The
		// seven-pass algorithm is the paper's last resort either way.
		return SevenPass
	}
	return chosen
}

// planShape builds the planner's machine shape from the resolved geometry.
func planShape(mem, d int, alpha float64) plan.Shape {
	return plan.Shape{Mem: mem, B: memsort.Isqrt(mem), D: d, Alpha: alpha}
}

// Sort sorts keys in place using the selected algorithm, returning the I/O
// report.  The input is padded on disk to the algorithm's geometry with
// MaxInt64 sentinels (hence ErrKeyRange if any key equals MaxInt64) and the
// padding is stripped before returning.
func (m *Machine) Sort(keys []int64, alg Algorithm) (*Report, error) {
	check := func() error { return checkKeys(keys) }
	if alg == Auto {
		alg = m.Plan(len(keys))
	}
	padded, err := padForSize(m.a.Mem(), alg, len(keys))
	if err == nil && padded > m.a.Mem()*m.a.Mem() {
		err = fmt.Errorf("repro: %d keys exceed the machine's M^2 = %d capacity", len(keys), m.a.Mem()*m.a.Mem())
	}
	if err != nil {
		// The keys are checked beside the load (sortPadded); a size that
		// never loads checks them here, so a sentinel is still ErrKeyRange.
		if kerr := check(); kerr != nil {
			return nil, kerr
		}
		return nil, err
	}
	return m.sortPadded(keys, padded, math.MaxInt64, alg, check, alg.Run)
}

// SortInts sorts nonnegative integer keys below universe with the paper's
// Section 7 RadixSort (O(1) passes for any input size).
func (m *Machine) SortInts(keys []int64, universe int64) (*Report, error) {
	// Pad with universe-1 sentinels (largest value) by RadixSort's rule.
	padded, err := padForSize(m.a.Mem(), core.AlgRadix, len(keys))
	if err != nil {
		return nil, err
	}
	check := func() error {
		for _, k := range keys {
			if k < 0 || k >= universe {
				return fmt.Errorf("repro: key %d outside [0, %d)", k, universe)
			}
		}
		return nil
	}
	return m.sortPadded(keys, padded, universe-1, core.AlgRadix, check, func(a *pdm.Array, in *pdm.Stripe) (*core.Result, error) {
		return core.RadixSort(a, in, universe)
	})
}

// sortPadded is the body Sort and SortInts share: stage keys on a fresh
// stripe padded to padded with sentinel while check vets them (loadBeside),
// run the sort, and copy the sorted prefix back over keys.  alg is what the
// Report names.
func (m *Machine) sortPadded(keys []int64, padded int, sentinel int64, alg Algorithm, check func() error,
	run func(*pdm.Array, *pdm.Stripe) (*core.Result, error)) (*Report, error) {
	in, err := m.loadBeside(keys, padded, sentinel, check)
	if err != nil {
		return nil, err
	}
	defer in.Free()
	res, err := run(m.a, in)
	if err != nil {
		return nil, err
	}
	defer res.Out.Free()
	if err := res.Out.UnloadInto(keys); err != nil {
		return nil, err
	}
	rep := &Report{
		Algorithm:   alg,
		N:           len(keys),
		Passes:      res.Passes,
		ReadPasses:  res.ReadPasses,
		WritePasses: res.WritePasses,
		FellBack:    res.FellBack,
		IO:          res.IO,
		PaddedN:     padded,
	}
	rep.Observe(res.IO, m.a.Workers())
	return rep, nil
}

// padForSize returns the smallest on-disk length ≥ n satisfying alg's
// geometry on an M-key machine, shared with the scheduler's submit-time
// disk-envelope sizing.  The geometry rule is the algorithm's row in
// core's table, which the planner prices and the run function enforces,
// so cost is predicted from the padded lengths the sort will use.
func padForSize(mem int, alg Algorithm, n int) (int, error) {
	padded, err := plan.PadFor(mem, alg, n)
	if err != nil {
		return 0, fmt.Errorf("repro: %d keys do not fit %v: %w", n, alg, err)
	}
	return padded, nil
}
