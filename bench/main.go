// Command bench is the repository's benchmark: six named workloads, each
// verified against an oracle, reported as the end-to-end and per-layer
// metrics BENCHMARK.json names.  See README.md beside this file.
//
//	go run ./bench                                   # the suite, tracing off
//	go run ./bench -trace 1                          # the suite, traced pass
//	go run ./bench -workload sort-file -seed 7       # one run, one workload
//	go run ./bench -compare old.json new.json        # diff two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultFile is what -out writes: one file per invocation, never appended
// to and never renamed.
type resultFile struct {
	Schema  string       `json:"schema"`
	Env     envBlock     `json:"env"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: the suite, one child process per run)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "length of a run's measured phase")
	trace := fs.Int("trace", 0, "1: traced run — an untraced and a traced phase of seconds/3 each, then probes and ceilings; prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1 and -workload: write the spans here in Chrome trace-event format")
	out := fs.String("out", "", "write the result file here")
	scratch := fs.String("scratch", ".bench_build", "directory for scratch files (created if missing)")
	repeats := fs.Int("repeats", 3, "suite: runs per workload, all with the same seed")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *secs <= 0 || *repeats < 1 {
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	file := &resultFile{Schema: schemaVersion, Env: readEnv(*scratch), Seconds: *secs}
	if *workload != "" {
		res, err := runWorkload(runConfig{
			workload: *workload, sc: fullScale, seed: *seed, seconds: *secs,
			traced: *trace != 0, setups: 3, scratch: *scratch, traceOut: *traceOut,
		})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		file.Runs = []*runResult{res}
		printRun(stdout, res)
		if code := writeResult(*out, file, stderr); code != 0 {
			return code
		}
		// The driver's contract: the last line of standard output, and
		// exit 0 whenever there is one — failures are in the line.
		fmt.Fprintln(stdout, resultLine(res))
		return 0
	}
	code := suite(file, *seed, *secs, *trace, *repeats, *scratch, stdout, stderr)
	if wc := writeResult(*out, file, stderr); wc != 0 {
		return wc
	}
	return code
}

func writeResult(path string, file *resultFile, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultLine is the one-line JSON object the driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one.
func resultLine(res *runResult) string {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	return string(raw)
}

// printRun prints one run's metrics by name with unit, median, quartiles
// and sample count.
func printRun(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	flagged := ""
	if res.Unstable {
		flagged = "  UNSTABLE (memmove drifted > 10% during the run)"
	}
	fmt.Fprintf(w, "%s  %s  seed %d  ops %d  failed %d%s\n", res.Workload, mode, res.Seed, res.Attempted, res.Failed, flagged)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if m.N > 1 {
			fmt.Fprintf(w, "  %-36s %14.6g %-9s q1 %.6g  q3 %.6g  n %d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	if len(res.SelfTime) > 0 {
		layer, secs := largestSelf(res.SelfTime)
		fmt.Fprintf(w, "  largest self-time layer: %s (%.4g s/op)\n", layer, secs)
	}
}

// suite runs every workload, one fresh child process per run so peak RSS
// and GC state belong to that run alone, and prints the medians across the
// repeats.
func suite(file *resultFile, seed int64, secs float64, trace, repeats int, scratch string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, wd := range workloadDefs {
		for rep := 0; rep < repeats; rep++ {
			tmp := filepath.Join(scratch, fmt.Sprintf("run-%d-%s-%d.json", os.Getpid(), wd.Name, rep))
			cmd := exec.Command(self, "-workload", wd.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-scratch", scratch, "-out", tmp)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			raw, readErr := os.ReadFile(tmp)
			os.Remove(tmp)
			var child resultFile
			if readErr == nil {
				readErr = json.Unmarshal(raw, &child)
			}
			if readErr != nil || len(child.Runs) != 1 {
				fmt.Fprintf(stderr, "bench: %s run %d produced no result: %v %v\n", wd.Name, rep, runErr, readErr)
				code = 1
				continue
			}
			if runErr != nil || !child.Runs[0].Correct {
				code = 1
			}
			file.Runs = append(file.Runs, child.Runs[0])
		}
		printAcross(stdout, wd.Name, file.Runs)
	}
	return code
}

// across collects one metric's values over a workload's runs in a file.
func across(runs []*runResult, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printAcross prints a workload's metrics as medians over its runs.
func printAcross(w io.Writer, workload string, runs []*runResult) {
	ops, failed, unstable := 0, 0, 0
	names := map[string]string{}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		ops += r.Attempted
		failed += r.Failed
		if r.Unstable {
			unstable++
		}
		for name, m := range r.Metrics {
			names[name] = m.Unit
		}
	}
	fmt.Fprintf(w, "%s  ops %d  failed %d  unstable runs %d\n", workload, ops, failed, unstable)
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		s := summarize(across(runs, workload, name))
		fmt.Fprintf(w, "  %-36s %14.6g %-9s q1 %.6g  q3 %.6g  n %d\n", name, s.Value, names[name], s.Q1, s.Q3, s.N)
	}
}
