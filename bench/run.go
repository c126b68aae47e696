package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	sc       scale
	seed     int64
	seconds  float64 // measured-phase length; ignored when ops > 0
	ops      int     // > 0: every phase runs exactly this many ops instead
	traced   bool
	setups   int    // how many times set-up is repeated (the median is reported)
	scratch  string // an existing directory; the run works in a fresh child of it
	traceOut string // traced runs: write the spans here in Chrome trace format
}

// metricValue is one reported metric.  Value is the statistic the metric
// is defined as (a median for anything sampled per op or per repeat);
// Q1/Q3/N describe the sample behind it when there is one.
type metricValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Exact bool    `json:"exact,omitempty"`
}

// runResult is one run in a result file.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Unstable  bool                   `json:"unstable"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// SelfTime is the traced pass's median self seconds per layer per op,
	// the table a per-layer claim is checked against.
	SelfTime map[string]float64 `json:"selfTimeByLayer,omitempty"`
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	ops           []opStats // the ops that succeeded and verified
	peaks         []float64 // single-client phases: each op's own peak RSS
	markRSS       float64   // concurrent phases: peak RSS when op rssMarkOps completed
	attempted     int
	done          int // ops completed, failed ones included
	errs          []string
	before, after counters
	facts         map[string]float64
}

func (p *phase) walls() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = o.wall.Seconds()
	}
	return out
}

// fact collects one per-op fact across the phase's ops.
func (p *phase) fact(name string) []float64 {
	var out []float64
	for _, o := range p.ops {
		if v, ok := o.facts[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// rssMarkOps is the completed-op count at which a concurrent phase reads its
// peak RSS.  The services retain every job's result, so their resident set
// grows with the jobs run; a time-based phase runs more jobs on a faster
// day, and a peak read at its end would call that a memory regression.
const rssMarkOps = 64

// rssPeakOps is how many of a single-client phase's first ops contribute
// their peak RSS, for the same reason: dist-2w's workers retain results too.
const rssPeakOps = 6

// runPhase drives w with its closed-loop clients: each client starts its
// next op when its previous one has completed and been verified.  The phase
// ends after maxOps ops when maxOps > 0, else when dur has elapsed.
func runPhase(w workload, nextID *int, dur time.Duration, maxOps int) *phase {
	p := &phase{before: readCounters()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if (maxOps > 0 && p.attempted >= maxOps) || (maxOps <= 0 && time.Since(start) >= dur) {
					mu.Unlock()
					return
				}
				p.attempted++
				*nextID++
				id := *nextID
				mu.Unlock()
				if w.clients() == 1 {
					// Start every op from a collected heap, so where the
					// collector's cycles fall inside an op does not depend
					// on the op before it.  Untimed; its CPU still counts.
					// The RSS high-water mark restarts with it, so each op
					// has its own peak.
					runtime.GC()
					resetPeakRSS()
				}
				st, err := w.op(c, id)
				mu.Lock()
				p.done++
				switch {
				case w.clients() == 1:
					p.peaks = append(p.peaks, float64(peakRSSBytes()))
				case p.done == rssMarkOps:
					p.markRSS = float64(peakRSSBytes())
				}
				if err != nil {
					if len(p.errs) < 5 {
						p.errs = append(p.errs, err.Error())
					}
				} else {
					p.ops = append(p.ops, st)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.after = readCounters()
	p.facts = w.phaseFacts(len(p.ops))
	return p
}

// build creates one instance in a fresh directory and runs its warm-up
// ops, returning how long that took: the run's set-up time.
func build(cfg runConfig, dir string, tr *tracer) (workload, time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	w, err := builders[cfg.workload](runEnv{sc: cfg.sc, seed: cfg.seed, dir: dir, tr: tr})
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warmups(); i++ {
		if _, err := w.op(i%w.clients(), warmupOp); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("warm-up op: %w", err)
		}
	}
	w.phaseFacts(0) // start the measured phase's deltas from here
	return w, time.Since(t0), nil
}

// runWorkload is one run: set-up, the measured phase with tracing off, and
// — on a traced run — a second phase on a traced instance plus the probes
// and ceilings.  It leaves nothing behind in cfg.scratch.
func runWorkload(cfg runConfig) (*runResult, error) {
	if builders[cfg.workload] == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	root, err := os.MkdirTemp(cfg.scratch, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	// plan's calibration probe writes under os.TempDir: keep it in here.
	if old, had := os.LookupEnv("TMPDIR"); had {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	os.Setenv("TMPDIR", root)

	res := &runResult{Workload: cfg.workload, Traced: cfg.traced, Seed: cfg.seed, Metrics: map[string]metricValue{}}
	sentinel := memmoveMBs()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		dur /= 3 // untraced third, traced third, probes in what is left
	}
	nextID := 0

	// Set-up, repeated so its time is a median; the last instance is kept.
	var w workload
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if w != nil {
			w.close()
			debug.FreeOSMemory()
		}
		var took time.Duration
		w, took, err = build(cfg, filepath.Join(root, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	// Return set-up's garbage and restart the RSS high-water mark, so the
	// peak belongs to the measured phase and not to the repeated set-ups.
	debug.FreeOSMemory()
	resetPeakRSS()
	plain := runPhase(w, &nextID, dur, cfg.ops)
	// One client: the median of the first ops' own peaks, which one op
	// caught between two collector cycles cannot move.  Concurrent clients share
	// the process, so there it is the high-water mark after rssMarkOps ops
	// (or at the end of a phase shorter than that).
	peak := summarize(plain.peaks[:min(len(plain.peaks), rssPeakOps)])
	switch {
	case len(plain.peaks) > 0:
	case plain.markRSS > 0:
		peak = one(plain.markRSS)
	default:
		peak = one(float64(peakRSSBytes()))
	}
	w.close()
	res.Attempted, res.Errors = plain.attempted, plain.errs
	succeeded := len(plain.ops)

	if !cfg.traced {
		endToEndMetrics(res, plain, setups, w.clients(), peak)
		layerFacts(res, plain, true)
	} else {
		runtime.GC()
		tr := newTracer()
		tw, _, err := build(cfg, filepath.Join(root, "traced"), tr)
		if err != nil {
			return nil, err
		}
		traced := runPhase(tw, &nextID, dur, cfg.ops)
		tw.close()
		res.Attempted += traced.attempted
		res.Errors = append(res.Errors, traced.errs...)
		succeeded += len(traced.ops)
		runtime.GC()
		probes := runProbes(cfg, filepath.Join(root, "probes"))
		probes["ceiling.memmove_mb_s"] = sentinel
		layerMetrics(res, cfg, plain, traced, tr, probes)
		if cfg.traceOut != "" {
			if err := tr.writeChrome(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	res.Failed = res.Attempted - succeeded
	res.Correct = res.Failed == 0 && res.Attempted > 0
	// The drift sentinel: the same memmove measured before and after.  A
	// noisy neighbour shows as a gap between the two, and the run is
	// marked so nobody reads it as a regression.
	after := memmoveMBs()
	res.Unstable = math.Abs(after-sentinel) > 0.10*max(after, sentinel)

	return res, nil
}
