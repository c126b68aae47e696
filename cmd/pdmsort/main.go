// Command pdmsort sorts a file on a simulated Parallel Disk Model backed
// by real files (one per disk; a pass preads/pwrites per block, the load
// and unload one extent per disk), using the paper's algorithms.
//
// Usage:
//
//	pdmsort -in keys.bin -out sorted.bin [-mem 65536] [-disks 0] \
//	        [-alg auto|one|mesh3|mesh2e|lmm3|exp2|exp3|seven|six|sevenmesh|radix] \
//	        [-universe 4294967296] [-scratch DIR] [-backend file|mmap] [-gen N] \
//	        [-seed 1] [-prefetch 2] [-writebehind 2] [-workers 0] [-latency 0] [-explain]
//	pdmsort -csv table.csv -keycol 0 [-sep ,] [-out sorted.csv] ...
//
// With -in, the input is a binary file of little-endian int64 keys.  With
// -csv, the input is a delimited text file sorted stably by an integer key
// column: every line is a full record whose bytes ride through the
// external permutation pass (Machine.SortRecords) — the end-to-end "sort a
// file by key" scenario.  Fields are split naively on -sep (no RFC-4180
// quoting), keeping every output line byte-identical to its input line.
// With -gen N (and no input file), pdmsort first generates N random
// keys.  The exit report prints the measured pass
// counts — the paper's currency — including the payload permutation's
// passes for record sorts.  Unknown algorithm names and invalid flag
// combinations exit 2 with a usage message before any work happens.
//
// With -explain, nothing is sorted: pdmsort prints the cost-model
// planner's candidate table for the input, in the order Auto chooses —
// predicted passes, the padded length each algorithm's geometry forces,
// I/O words, and calibrated wall time — and marks the algorithm the run
// would sort with (Auto's choice, or the forced -alg).
// -latency models a per-block device latency on the simulated disks (it
// slows the sort and shifts the explain table exactly as real positioning
// latency would).
//
// Query scenarios answer a question about the keys instead of sorting them
// all, when the planner prices the scenario route under the full sort:
//
//	pdmsort -in keys.bin -topk 100          # the 100 smallest keys -> -out
//	pdmsort -in keys.bin -quantile 500000   # the key of rank 500000 -> stdout
//	pdmsort -in sorted.bin -ingest new.bin  # fold a batch into a sorted file
//
// Combining a scenario flag with -explain prints the scenario's cost
// comparison (predicted passes vs the full sort) without running it.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/plan"
)

// usageError marks a flag-validation failure: main prints the usage text
// and exits 2, distinguishing operator mistakes from runtime failures.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// options collects the resolved flags.
type options struct {
	in       string
	csv      string
	keyCol   int
	sep      string
	out      string
	mem      int
	disks    int
	alg      string
	universe int64
	scratch  string
	backend  string
	gen      int
	seed     int64
	pipe     repro.PipelineConfig
	workers  int
	latency  time.Duration
	explain  bool
	topk     int
	quantile int
	ingest   string
}

// scenarioKind names the query scenario the flags select; "" is a sort.
func (o *options) scenarioKind() string {
	switch {
	case o.topk > 0:
		return plan.KindTopK
	case o.quantile > 0:
		return plan.KindQuantile
	case o.ingest != "":
		return plan.KindIngest
	}
	return ""
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input file of little-endian int64 keys")
	flag.StringVar(&o.csv, "csv", "", "delimited text file to sort by an integer key column")
	flag.IntVar(&o.keyCol, "keycol", 0, "zero-based key column for -csv")
	flag.StringVar(&o.sep, "sep", ",", "field separator for -csv (lines are split naively: RFC-4180 quoting is not interpreted)")
	flag.StringVar(&o.out, "out", "", "output file (defaults to <input>.sorted)")
	flag.IntVar(&o.mem, "mem", 65536, "internal memory M in keys (perfect square)")
	flag.IntVar(&o.disks, "disks", 0, "number of disks D (0 = sqrt(M)/4)")
	flag.StringVar(&o.alg, "alg", "auto", "algorithm: "+core.AlgNames())
	flag.Int64Var(&o.universe, "universe", 1<<32, "key universe for -alg radix")
	flag.StringVar(&o.scratch, "scratch", "", "directory for the disk files (default: temp dir)")
	flag.StringVar(&o.backend, "backend", "", "disk backend: file (read/write syscalls, default) or mmap (zero-copy memory-mapped)")
	flag.IntVar(&o.gen, "gen", 0, "generate this many random keys instead of reading -in")
	flag.Int64Var(&o.seed, "seed", 1, "seed for -gen")
	flag.IntVar(&o.pipe.Prefetch, "prefetch", 2, "prefetch depth in slots of two stripe rows (0 = synchronous reads)")
	flag.IntVar(&o.pipe.WriteBehind, "writebehind", 2, "write-behind depth in slots of two stripe rows (0 = synchronous writes)")
	flag.IntVar(&o.workers, "workers", 0, "compute worker pool width (0 = GOMAXPROCS; output is identical for any value)")
	flag.DurationVar(&o.latency, "latency", 0, "modeled per-block device latency on every disk (e.g. 2ms)")
	flag.BoolVar(&o.explain, "explain", false, "print the planner's candidate table and exit without sorting")
	flag.IntVar(&o.topk, "topk", 0, "write only the K smallest keys (scenario; planner may filter in one pass)")
	flag.IntVar(&o.quantile, "quantile", 0, "print the key of this 1-indexed rank (scenario)")
	flag.StringVar(&o.ingest, "ingest", "", "fold this binary key file into the sorted -in dataset (scenario)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "pdmsort: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintln(os.Stderr)
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// validate rejects unusable flag combinations before any work (file I/O,
// key generation, machine construction) happens.
func validate(o options) error {
	if _, err := repro.ParseAlgorithm(o.alg); err != nil {
		return usageError{fmt.Errorf("-alg: %w", err)}
	}
	inputs := 0
	if o.in != "" {
		inputs++
	}
	if o.csv != "" {
		inputs++
	}
	if o.gen > 0 {
		inputs++
	}
	switch {
	case o.gen < 0:
		return usageError{fmt.Errorf("-gen %d: want a positive count", o.gen)}
	case inputs > 1:
		return usageError{errors.New("-in, -csv, and -gen are mutually exclusive")}
	case inputs == 0:
		return usageError{errors.New("need -in FILE, -csv FILE, or -gen N")}
	case o.csv != "" && o.alg == "radix":
		return usageError{errors.New("-csv sorts full records, which needs a comparison algorithm, not radix")}
	case o.csv != "" && o.keyCol < 0:
		return usageError{fmt.Errorf("-keycol %d: want >= 0", o.keyCol)}
	case o.csv != "" && o.sep == "":
		return usageError{errors.New("-sep must not be empty")}
	case o.universe <= 0 && (o.alg == "radix" || o.gen > 0):
		return usageError{fmt.Errorf("-universe %d: want > 0", o.universe)}
	case o.mem <= 0:
		return usageError{fmt.Errorf("-mem %d: want > 0", o.mem)}
	case o.disks < 0:
		return usageError{fmt.Errorf("-disks %d: want >= 0", o.disks)}
	case o.pipe.Prefetch < 0 || o.pipe.WriteBehind < 0:
		return usageError{fmt.Errorf("-prefetch %d / -writebehind %d: want >= 0", o.pipe.Prefetch, o.pipe.WriteBehind)}
	case o.workers < 0:
		return usageError{fmt.Errorf("-workers %d: want >= 0", o.workers)}
	case o.latency < 0:
		return usageError{fmt.Errorf("-latency %v: want >= 0", o.latency)}
	}
	// pdmsort machines are always file-backed (-scratch or a temp dir).
	if _, err := pdm.ParseBackend(o.backend, true); err != nil {
		return usageError{fmt.Errorf("-backend: %w", err)}
	}
	scenarios := 0
	for _, on := range []bool{o.topk > 0, o.quantile > 0, o.ingest != ""} {
		if on {
			scenarios++
		}
	}
	switch {
	case o.topk < 0:
		return usageError{fmt.Errorf("-topk %d: want > 0", o.topk)}
	case o.quantile < 0:
		return usageError{fmt.Errorf("-quantile %d: want > 0", o.quantile)}
	case scenarios > 1:
		return usageError{errors.New("-topk, -quantile, and -ingest are mutually exclusive")}
	case scenarios == 1 && o.csv != "":
		return usageError{errors.New("query scenarios work on bare keys, not -csv records")}
	case scenarios == 1 && o.alg != "auto":
		return usageError{errors.New("query scenarios plan their own algorithm; drop -alg")}
	}
	return nil
}

func run(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	// The input is read (or generated) before any machine setup, so a bad
	// input file fails without creating disk files in the scratch dir.
	var keys []int64
	var lines [][]byte // CSV records; nil for key-only sorts
	var trailingNL bool
	in := o.in
	var err error
	switch {
	case o.csv != "":
		in = o.csv
		keys, lines, trailingNL, err = readCSV(o.csv, o.keyCol, o.sep)
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return fmt.Errorf("%s: no records", o.csv)
		}
	case o.gen > 0:
		keys = make([]int64, o.gen)
		rng := rand.New(rand.NewSource(o.seed))
		for i := range keys {
			keys[i] = rng.Int63n(o.universe)
		}
		in = "generated.bin"
	default:
		keys, err = readKeys(in)
		if err != nil {
			return err
		}
	}
	out := o.out
	if out == "" {
		out = in + ".sorted"
	}

	scratch := o.scratch
	if scratch == "" {
		dir, err := os.MkdirTemp("", "pdmsort-disks-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}
	m, err := repro.NewMachine(repro.MachineConfig{
		Memory: o.mem, Disks: o.disks, Dir: scratch, Backend: o.backend,
		Pipeline: o.pipe, Workers: o.workers, BlockLatency: o.latency,
	})
	if err != nil {
		return err
	}
	defer m.Close()

	if kind := o.scenarioKind(); kind != "" {
		return runScenario(o, m, kind, keys, out)
	}

	alg, err := repro.ParseAlgorithm(o.alg) // cannot fail: validate ran first
	if err != nil {
		return err
	}
	if o.explain {
		spec := repro.SortSpec{N: len(keys)}
		if o.alg == "radix" {
			spec.Universe = o.universe
		}
		for _, line := range lines {
			spec.PayloadWords += (len(line) + 7) / 8
		}
		planRep, err := explain(m, spec, alg)
		if err != nil {
			return err
		}
		printExplain(os.Stdout, planRep)
		return nil
	}

	var rep *repro.Report
	t0 := time.Now()
	switch {
	case o.csv != "":
		// Every line is one record whose whole byte content is the
		// payload, so the permutation pass moves the actual file data
		// through the simulated disks.
		rep, err = m.SortRecords(keys, lines, alg)
	case o.alg == "radix":
		rep, err = m.SortInts(keys, o.universe)
	default:
		rep, err = m.Sort(keys, alg)
	}
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	if o.csv != "" {
		err = writeLines(out, lines, trailingNL)
	} else {
		err = writeKeys(out, keys)
	}
	if err != nil {
		return err
	}
	backend := o.backend
	if backend == "" {
		backend = repro.BackendFile
	}
	printReport(rep, out, backend, wall)
	return nil
}

// runScenario answers a query-scenario flag: with -explain it prints the
// scenario plan (the route's predicted passes against the full sort it
// competes with), otherwise it runs the scenario and reports the measured
// passes in the same currency.
func runScenario(o options, m *repro.Machine, kind string, keys []int64, out string) error {
	// The flags as the job descriptor a pdmd client would submit; KeepKeys
	// because an ingest's merged output is what pdmsort writes.
	spec := repro.JobSpec{Keys: keys, Scenario: kind, TopK: o.topk, Rank: o.quantile, KeepKeys: true}
	if o.ingest != "" {
		var err error
		if spec.IngestBatch, err = readKeys(o.ingest); err != nil {
			return err
		}
	}
	if o.explain {
		p, err := m.ExplainScenario(spec.ScenarioQuery())
		if err != nil {
			return err
		}
		printScenarioPlan(os.Stdout, p)
		return nil
	}
	t0 := time.Now()
	res, rep, err := m.RunScenario(&spec, keys)
	if err != nil {
		return err
	}
	if res.Value != nil {
		fmt.Printf("rank %d key: %d\n", o.quantile, *res.Value)
		out = ""
	} else if err := writeKeys(out, res.Keys); err != nil {
		return err
	}
	printScenarioReport(rep, out, time.Since(t0))
	return nil
}

// printScenarioPlan renders one scenario's cost comparison.
func printScenarioPlan(w io.Writer, p *repro.ScenarioPlanReport) {
	if !p.Feasible {
		fmt.Fprintf(w, "scenario %s: infeasible: %s\n", p.Kind, p.Reason)
		return
	}
	exact := "floor"
	if p.Exact {
		exact = "exact"
	}
	fmt.Fprintf(w, "scenario %s via %s: %.3f read / %.3f write passes (%s; %d/%d steps over %d padded words)\n",
		p.Kind, p.Route, p.ReadPasses, p.WritePasses, exact, p.ReadSteps, p.WriteSteps, p.PaddedN)
	if p.Sample > 0 {
		fmt.Fprintf(w, "sample: %d keys, survivor capacity %d\n", p.Sample, p.Budget)
	}
	fmt.Fprintf(w, "full sort (%s): %.3f read passes\n", string(p.FullSortAlgorithm), p.FullSortReadPasses)
	decision := "full sort"
	if p.UseScenario {
		decision = "scenario route"
	}
	fmt.Fprintf(w, "auto picks: %s\n", decision)
}

// printScenarioReport summarizes a scenario run in the pass currency.
func printScenarioReport(rep *repro.Report, out string, wall time.Duration) {
	fmt.Printf("%s via %s: %.3f read passes, %.3f write passes over %d keys",
		rep.Scenario, rep.ScenarioRoute, rep.ReadPasses, rep.WritePasses, rep.N)
	if rep.FellBack {
		fmt.Printf(" (detected a sampling miss; fell back)")
	}
	fmt.Printf("\nI/O: %s\n", rep.IO)
	if secs := wall.Seconds(); secs > 0 {
		fmt.Printf("%.2fM words/sec (%d words in %v)\n",
			float64(rep.N)/secs/1e6, rep.N, wall.Round(time.Millisecond))
	}
	if out != "" {
		fmt.Printf("output: %s\n", out)
	}
}

// explain plans spec on m.  A forced -alg is what the run sorts with, so
// it is the chosen row, as GET /plan marks a spec's forced algorithm.
func explain(m *repro.Machine, spec repro.SortSpec, alg repro.Algorithm) (*repro.PlanReport, error) {
	rep, err := m.Explain(spec)
	if err == nil && alg != repro.Auto {
		rep.Chosen = alg
	}
	return rep, err
}

// printExplain renders the planner's candidate table, in the order Auto
// chooses.  Every column except the predicted seconds is deterministic for
// a given input and machine shape; the CI gold test normalizes the seconds
// column.
func printExplain(w io.Writer, rep *repro.PlanReport) {
	fmt.Fprintf(w, "plan for %d keys", rep.Spec.N)
	if rep.Spec.PayloadWords > 0 {
		fmt.Fprintf(w, " + %d payload words", rep.Spec.PayloadWords)
	}
	if rep.Spec.Universe > 0 {
		fmt.Fprintf(w, " (universe %d)", rep.Spec.Universe)
	}
	fmt.Fprintf(w, ": chosen %s\n", string(rep.Chosen))
	fmt.Fprintf(w, "  %-10s %-8s %8s %10s %12s %8s %12s\n",
		"ALGORITHM", "FEASIBLE", "PASSES", "PADDED", "IOWORDS", "PERMUTE", "PREDICTED")
	for _, c := range rep.Candidates {
		name := string(c.Algorithm) // the short name, not the paper's
		mark := " "
		if c.Algorithm == rep.Chosen {
			mark = "*"
		}
		if !c.Feasible {
			fmt.Fprintf(w, "%s %-10s no       %s\n", mark, name, c.Reason)
			continue
		}
		permute := "-"
		if c.PermutePasses > 0 {
			permute = fmt.Sprintf("%.1f", c.PermutePasses)
		}
		fmt.Fprintf(w, "%s %-10s yes      %8.3f %10d %12d %8s %11.3fs\n",
			mark, name, c.ReadPasses, c.PaddedN, c.IOWords, permute, c.Seconds)
	}
	cal := "analytic defaults"
	if rep.Calibration.Probed {
		cal = "micro-probe (cached per machine shape)"
	}
	fmt.Fprintf(w, "calibration: %s\n", cal)
}

func printReport(rep *repro.Report, out, backend string, wall time.Duration) {
	fmt.Printf("sorted %d keys with %s: %.3f read passes, %.3f write passes",
		rep.N, rep.Algorithm, rep.ReadPasses, rep.WritePasses)
	if rep.FellBack {
		fmt.Printf(" (fell back to the deterministic algorithm)")
	}
	if rep.KeyRounds > 1 {
		fmt.Printf(" (%d key rounds)", rep.KeyRounds)
	}
	fmt.Printf("\nI/O: %s\n", rep.IO)
	if rep.PayloadWords > 0 {
		fmt.Printf("records: moved %d payload words in %.3f permutation passes\n",
			rep.PayloadWords, rep.PermutePasses)
	}
	if rep.PrefetchHits+rep.PrefetchStalls > 0 {
		fmt.Printf("pipeline: %.0f%% of streamed reads overlapped (%d hits, %d stalls, %d write stalls)\n",
			100*rep.Overlap, rep.PrefetchHits, rep.PrefetchStalls, rep.WriteStalls)
	}
	if rep.ComputeSeconds > 0 {
		fmt.Printf("compute: %.3fs in parallel sections across %d workers (%.0f%% utilization)\n",
			rep.ComputeSeconds, rep.Workers, 100*rep.WorkerUtilization)
	} else {
		fmt.Printf("compute: serial (workers=%d, nothing crossed the parallel grain)\n", rep.Workers)
	}
	words := rep.N + rep.PayloadWords
	if secs := wall.Seconds(); secs > 0 {
		fmt.Printf("backend: %s — %.2fM words/sec (%d words in %v)\n",
			backend, float64(words)/secs/1e6, words, wall.Round(time.Millisecond))
	} else {
		fmt.Printf("backend: %s\n", backend)
	}
	fmt.Printf("output: %s\n", out)
}

// readCSV parses the file into one record per line: the integer key from
// the requested column and the raw line bytes as the payload.  It reports
// whether the file ended with a newline so the output reproduces it.
//
// Lines are split naively on the separator — RFC-4180 quoting is NOT
// interpreted, because the payload must be the line's exact bytes (an
// encoding/csv round trip would re-quote them).  A quoted field
// containing the separator shifts the key column and fails key parsing
// with a line-numbered error rather than silently mis-keying.
func readCSV(path string, keyCol int, sep string) (keys []int64, lines [][]byte, trailingNL bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	text := string(raw)
	trailingNL = strings.HasSuffix(text, "\n")
	text = strings.TrimSuffix(text, "\n")
	if text == "" {
		return nil, nil, trailingNL, nil
	}
	for ln, line := range strings.Split(text, "\n") {
		fields := strings.Split(strings.TrimSuffix(line, "\r"), sep)
		if keyCol >= len(fields) {
			return nil, nil, false, fmt.Errorf("%s:%d: %d fields, key column %d out of range", path, ln+1, len(fields), keyCol)
		}
		k, err := strconv.ParseInt(strings.TrimSpace(fields[keyCol]), 10, 64)
		if err != nil {
			return nil, nil, false, fmt.Errorf("%s:%d: key column %d: %w", path, ln+1, keyCol, err)
		}
		keys = append(keys, k)
		lines = append(lines, []byte(line))
	}
	return keys, lines, trailingNL, nil
}

// writeLines writes the records back as a delimited text file.
func writeLines(path string, lines [][]byte, trailingNL bool) error {
	var buf []byte
	for i, line := range lines {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, line...)
	}
	if trailingNL {
		buf = append(buf, '\n')
	}
	return os.WriteFile(path, buf, 0o644)
}

func readKeys(path string) ([]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 8", path, len(raw))
	}
	keys := make([]int64, len(raw)/8)
	for i := range keys {
		keys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return keys, nil
}

func writeKeys(path string, keys []int64) error {
	raw := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(k))
	}
	return os.WriteFile(path, raw, 0o644)
}
