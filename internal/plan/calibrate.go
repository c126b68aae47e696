package plan

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/pdm"
)

// Calibration prices the model: seconds per parallel I/O step (one block
// per disk) on each side, and seconds per key of in-memory compute.  A
// zero value is unusable; obtain one from DefaultCalibration (analytic
// nominal rates) or Calibrate (measured on the real backend).  A plan
// report carries the one it priced with (repro.PlanCalibration).
type Calibration struct {
	// ReadStepSeconds and WriteStepSeconds are the effective wall cost of
	// one parallel I/O step — modeled block latency, transfer, and (for
	// file disks) syscall overhead included.
	ReadStepSeconds  float64 `json:"readStepSeconds"`
	WriteStepSeconds float64 `json:"writeStepSeconds"`
	// SortSecondsPerKey is the in-memory compute rate: the wall cost per
	// key of one load's worth of sorting/merging on the configured pool.
	SortSecondsPerKey float64 `json:"sortSecondsPerKey"`
	// Probed reports a measured calibration (false for the analytic
	// default); ProbeSeconds is what the one-shot probe cost.
	Probed       bool    `json:"probed"`
	ProbeSeconds float64 `json:"probeSeconds,omitempty"`
}

// DefaultCalibration returns the analytic seed: the modeled block latency
// plus nominal per-word transfer and per-key compute rates.  Rankings
// under the default match rankings under any probe (the model is monotone
// in predicted words), so Choose uses it; only absolute seconds differ.
func DefaultCalibration(shape Shape) Calibration {
	var perWord float64
	switch shape.Backend {
	case pdm.BackendFile:
		perWord = 12e-9 // page-cache file I/O plus one syscall per block
	case pdm.BackendMmap:
		perWord = 4e-9 // page-cache copy through the mapping, no syscall
	default:
		perWord = 2e-9 // in-memory block store: one copy per word
	}
	step := shape.BlockLatency.Seconds() + float64(shape.B)*perWord + 5e-6
	return Calibration{
		ReadStepSeconds:   step,
		WriteStepSeconds:  step,
		SortSecondsPerKey: 60e-9, // nominal in-memory sort: ~n·log n with branchy compares
	}
}

// ProbeConfig keys the calibration cache: everything that changes the
// measured rates, and nothing else (MachineConfig fields like Alpha or a
// specific scratch path do not).
type ProbeConfig struct {
	D, B         int
	Workers      int
	BlockLatency time.Duration
	Backend      pdm.Backend
}

// probeStripes is the probe transfer length in stripes: long enough to
// amortize startup, short enough that a latency-modeled probe stays in the
// tens of milliseconds.
const probeStripes = 8

// calEntry is one cache slot: the probe runs inside the entry's once, so
// a slow probe (its duration scales with the modeled BlockLatency) never
// blocks calibrations for other shapes — only the map lookup holds the
// global lock.
type calEntry struct {
	once sync.Once
	cal  Calibration
}

var (
	calMu    sync.Mutex
	calCache = map[ProbeConfig]*calEntry{}
)

// Calibrate measures a Calibration for the given backend shape with a
// one-shot micro-probe — a tiny stripe store written and read back on a
// fresh array of the same geometry and disk kind, plus an in-memory sort
// on a pool of the same width — and caches it per ProbeConfig, so every
// machine (and every scheduler job) sharing a shape pays for the probe
// once per process.  Concurrent callers with the same shape share one
// probe; callers with different shapes probe in parallel.  On probe
// failure it falls back to the analytic default rather than failing the
// caller's sort.
func Calibrate(pc ProbeConfig) Calibration {
	calMu.Lock()
	e, ok := calCache[pc]
	if !ok {
		e = &calEntry{}
		calCache[pc] = e
	}
	calMu.Unlock()
	e.once.Do(func() {
		cal, err := probe(pc)
		if err != nil {
			cal = DefaultCalibration(Shape{
				Mem: pc.B * pc.B, B: pc.B, D: pc.D,
				BlockLatency: pc.BlockLatency, Backend: pc.Backend,
			})
		}
		e.cal = cal
	})
	return e.cal
}

// ResetCalibrationCache drops every cached probe (tests use it to force
// remeasurement).
func ResetCalibrationCache() {
	calMu.Lock()
	defer calMu.Unlock()
	calCache = map[ProbeConfig]*calEntry{}
}

// probe builds the throwaway array and measures.
func probe(pc ProbeConfig) (cal Calibration, err error) {
	if pc.D < 1 || pc.B < 1 {
		return cal, fmt.Errorf("plan: bad probe geometry D = %d, B = %d", pc.D, pc.B)
	}
	t0 := time.Now()
	stripe := pc.D * pc.B
	// Mem is the probed machine's M (the facade's machines have B = √M), so
	// the pool sorts with the kernel that machine's memory loads run through.
	cfg := pdm.Config{D: pc.D, B: pc.B, Mem: max(stripe, pc.B*pc.B), Workers: pc.Workers}
	var dir string
	if pc.Backend == pdm.BackendFile || pc.Backend == pdm.BackendMmap {
		dir, err = os.MkdirTemp("", "plan-probe-")
		if err != nil {
			return cal, err
		}
		defer os.RemoveAll(dir)
	}
	disks, err := pc.Backend.NewDisks(dir, pc.D, pc.B)
	if err != nil {
		return cal, err
	}
	if pc.BlockLatency > 0 {
		for i, d := range disks {
			disks[i] = pdm.LatencyDisk{Disk: d, PerBlock: pc.BlockLatency}
		}
	}
	a, err := pdm.NewWithDisks(cfg, disks)
	if err != nil {
		return cal, err
	}
	defer a.Close()

	// I/O probe: one store of probeStripes rows, written then read.  Each
	// disk serves its blocks serially, so wall/rows is the per-step cost —
	// exactly what the model multiplies by predicted steps.
	s, err := a.NewStripe(probeStripes * stripe)
	if err != nil {
		return cal, err
	}
	defer s.Free()
	data := make([]int64, probeStripes*stripe)
	fillProbeKeys(data)
	// Warm the store first: the untimed load pays one-time growth cost
	// (truncate, mmap remaps) so the timed pass measures the steady-state
	// per-step rate the model multiplies by predicted steps.
	if err := s.Load(data); err != nil {
		return cal, err
	}
	tw := time.Now()
	if err := s.Load(data); err != nil {
		return cal, err
	}
	cal.WriteStepSeconds = time.Since(tw).Seconds() / probeStripes
	tr := time.Now()
	if _, err := s.Unload(); err != nil {
		return cal, err
	}
	cal.ReadStepSeconds = time.Since(tr).Seconds() / probeStripes

	// Compute probe: sort one buffer on the configured pool.  The per-key
	// rate prices every pass's in-memory work (run formation, merging,
	// shuffling) — coarse, but uniform across candidates.
	buf := make([]int64, 1<<15)
	fillProbeKeys(buf)
	tc := time.Now()
	a.Pool().SortKeys(buf)
	cal.SortSecondsPerKey = time.Since(tc).Seconds() / float64(len(buf))

	cal.Probed = true
	cal.ProbeSeconds = time.Since(t0).Seconds()
	return cal, nil
}

// fillProbeKeys fills buf with a deterministic xorshift sequence (no
// math/rand dependency, identical across runs).
func fillProbeKeys(buf []int64) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = int64(x >> 2)
	}
}
