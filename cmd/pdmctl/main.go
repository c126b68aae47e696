// Command pdmctl drives pdmd nodes from the command line: single-node job
// control (submit/status/cancel/health against one daemon) and the
// distributed coordinator (sort: sample, range-partition and stream-merge
// one job across many daemons, printing the aggregated report).
//
//	pdmctl health -worker http://host:8080
//	pdmctl submit -worker http://host:8080 -spec '{"workload":{"kind":"zipf","n":100000,"seed":7}}'
//	pdmctl status -worker http://host:8080 -id 1 -watch
//	pdmctl jobs -worker http://host:8080
//	pdmctl cancel -worker http://host:8080 -id 1
//	pdmctl sort -workers http://a:8080,http://b:8080 -kind perm -n 1000000 -seed 1
//
// sort generates the workload locally (the same generators pdmd uses
// server-side), runs the distributed job, verifies the merged output is
// sorted, and prints the fleet report as JSON.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/plan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "health":
		err = cmdHealth(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "cancel":
		err = cmdCancel(os.Args[2:])
	case "sort":
		err = cmdSort(os.Args[2:])
	case plan.KindTopK, plan.KindQuantile, plan.KindGroupBy, plan.KindIngest:
		err = cmdScenario(os.Args[1], os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdmctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pdmctl <command> [flags]

commands:
  health  probe one daemon's /healthz
  submit  submit a job spec to one daemon
  status  poll one job's status (-watch follows it to completion)
  jobs    list every job the daemon knows, with recovery provenance
  cancel  cancel one job
  sort    run a distributed sort across many daemons

query scenarios (single daemon; -plan prints the cost comparison only):
  topk      k smallest keys of a generated dataset   (-k)
  quantile  the key of a target rank                  (-rank, 0 = median)
  groupby   count/sum/min/max aggregation by key      (-groups hint)
  ingest    fold a batch into a sorted dataset        (-batch)`)
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

// call runs one JSON request against a daemon and decodes the answer.
func call(method, url string, body []byte) (json.RawMessage, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, raw)
	}
	return raw, nil
}

func printJSON(raw any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(raw)
}

func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	worker := fs.String("worker", "http://localhost:8080", "daemon base URL")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	raw, err := call(http.MethodGet, *worker+"/healthz", nil)
	if err != nil {
		return err
	}
	return printJSON(raw)
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	worker := fs.String("worker", "http://localhost:8080", "daemon base URL")
	spec := fs.String("spec", "", "job spec JSON (the POST /jobs body)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *spec == "" {
		return fmt.Errorf("submit: -spec is required")
	}
	raw, err := call(http.MethodPost, *worker+"/jobs", []byte(*spec))
	if err != nil {
		return err
	}
	return printJSON(raw)
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	worker := fs.String("worker", "http://localhost:8080", "daemon base URL")
	id := fs.Int("id", 0, "job id")
	watch := fs.Bool("watch", false, "poll until the job reaches a terminal state")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	for {
		raw, err := call(http.MethodGet, fmt.Sprintf("%s/jobs/%d", *worker, *id), nil)
		if err != nil {
			return err
		}
		var st repro.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
		// Suspended is terminal for this daemon life: the job will not move
		// again until a new pdmd replays the journal.
		terminal := st.State == repro.JobDone || st.State == repro.JobFailed ||
			st.State == repro.JobCanceled || st.State == repro.JobSuspended
		if !*watch || terminal {
			if p := provenance(st.Recovery); p != "" {
				fmt.Fprintf(os.Stderr, "pdmctl: job %d %s\n", st.ID, p)
			}
			return printJSON(raw)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// provenance renders a recovered job's origin for humans; "" for jobs
// submitted to this daemon life.
func provenance(rec *repro.RecoveryInfo) string {
	switch {
	case rec == nil:
		return ""
	case rec.ResumedFromPass > 0:
		return fmt.Sprintf("resumed from pass %d checkpoint", rec.ResumedFromPass)
	case rec.RestartedFromInput:
		return "recovered; restarted from input (scratch unusable)"
	case rec.WasRunning:
		return "recovered mid-run; not rerun yet"
	default:
		return "recovered from the journal queue"
	}
}

// cmdJobs lists every job the daemon knows — including ones replayed from
// the journal after a restart — as a table, or raw JSON with -json.
func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	worker := fs.String("worker", "http://localhost:8080", "daemon base URL")
	asJSON := fs.Bool("json", false, "print the raw status list instead of a table")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	raw, err := call(http.MethodGet, *worker+"/jobs", nil)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(raw)
	}
	var jobs []repro.JobStatus
	if err := json.Unmarshal(raw, &jobs); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tSTATE\tALG\tN\tLABEL\tRECOVERY")
	for _, j := range jobs {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%s\t%s\n",
			j.ID, j.State, j.Algorithm, j.N, j.Label, provenance(j.Recovery))
	}
	return tw.Flush()
}

func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	worker := fs.String("worker", "http://localhost:8080", "daemon base URL")
	id := fs.Int("id", 0, "job id")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	raw, err := call(http.MethodPost, fmt.Sprintf("%s/jobs/%d/cancel", *worker, *id), nil)
	if err != nil {
		return err
	}
	return printJSON(raw)
}

// cmdScenario submits one query-scenario job to a single daemon, waits for
// it, and prints the status plus the result page.  With -plan it only asks
// GET /plan/scenario for the cost comparison (scenario route vs full sort)
// and prints that.
//
//	pdmctl groupby -worker http://host:8080 -kind fewdistinct -n 1000000 -distinct 500
//	pdmctl topk -worker http://host:8080 -n 1000000 -k 100 -plan
func cmdScenario(kind string, args []string) error {
	fs := flag.NewFlagSet(kind, flag.ExitOnError)
	worker := fs.String("worker", "http://localhost:8080", "daemon base URL")
	wkind := fs.String("kind", "perm", "dataset workload kind (ingest always uses \"sorted\")")
	n := fs.Int("n", 1<<20, "dataset size in keys")
	seed := fs.Int64("seed", 1, "workload seed")
	k := fs.Int("k", 100, "top-K count (topk)")
	rank := fs.Int("rank", 0, "1-indexed target rank (quantile; 0 = median)")
	groups := fs.Int("groups", 0, "distinct-group hint (groupby; 0 = unknown)")
	distinct := fs.Int("distinct", 0, "distinct values for zipf/fewdistinct workloads")
	batch := fs.Int("batch", 1<<14, "batch size (ingest)")
	limit := fs.Int("limit", 32, "result keys/groups to print")
	planOnly := fs.Bool("plan", false, "print the scenario plan, run nothing")
	label := fs.String("label", "pdmctl", "job label")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	spec := repro.JobSpec{
		Workload: &repro.WorkloadSpec{Kind: *wkind, N: *n, Seed: *seed, Distinct: *distinct},
		Scenario: kind,
		Label:    *label,
	}
	switch kind {
	case plan.KindTopK:
		spec.TopK = *k
	case plan.KindQuantile:
		if *rank == 0 {
			*rank = (*n + 1) / 2
		}
		spec.Rank = *rank
	case plan.KindGroupBy:
		spec.Groups = *groups
	case plan.KindIngest:
		spec.Workload.Kind = "sorted"
		bk, err := (&repro.WorkloadSpec{Kind: "uniform", N: *batch, Seed: *seed}).Generate()
		if err != nil {
			return err
		}
		spec.IngestBatch = bk
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if *planOnly {
		raw, err := call(http.MethodPost, *worker+"/plan/scenario", body)
		if err != nil {
			return err
		}
		return printJSON(raw)
	}
	raw, err := call(http.MethodPost, *worker+"/jobs", body)
	if err != nil {
		return err
	}
	var st repro.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	for st.State == repro.JobQueued || st.State == repro.JobRunning {
		time.Sleep(250 * time.Millisecond)
		if raw, err = call(http.MethodGet, fmt.Sprintf("%s/jobs/%d", *worker, st.ID), nil); err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
	}
	if err := printJSON(raw); err != nil {
		return err
	}
	if st.State != repro.JobDone {
		return fmt.Errorf("%s: job %d ended %s: %s", kind, st.ID, st.State, st.Error)
	}
	path := fmt.Sprintf("%s/jobs/%d/result?limit=%d", *worker, st.ID, *limit)
	if kind == plan.KindGroupBy {
		path = fmt.Sprintf("%s/jobs/%d/groups?limit=%d", *worker, st.ID, *limit)
	}
	res, err := call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return printJSON(res)
}

func cmdSort(args []string) error {
	fs := flag.NewFlagSet("sort", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated daemon base URLs")
	kind := fs.String("kind", "perm", "workload kind (perm, uniform, zipf, sortedruns, ...)")
	n := fs.Int("n", 1<<20, "number of keys")
	seed := fs.Int64("seed", 1, "workload seed")
	payloadMin := fs.Int("payloadmin", 0, "payload min bytes (records sort when max > 0)")
	payloadMax := fs.Int("payloadmax", 0, "payload max bytes")
	alg := fs.String("alg", "", "per-shard algorithm (empty = worker auto)")
	latencyUS := fs.Int64("latency", 0, "modeled per-block latency in microseconds")
	page := fs.Int("page", 0, "upload/download page size in keys (0 = default)")
	conc := fs.Int("conc", 0, "concurrent page uploads (0 = default)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0 = default)")
	label := fs.String("label", "pdmctl", "job label prefix")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *workers == "" {
		return fmt.Errorf("sort: -workers is required")
	}
	shardAlg, err := repro.ParseAlgorithm(*alg)
	if err != nil {
		return fmt.Errorf("sort: -alg: %w", err)
	}

	keys, err := (&repro.WorkloadSpec{Kind: *kind, N: *n, Seed: *seed}).Generate()
	if err != nil {
		return err
	}
	var payloads [][]byte
	if *payloadMax > 0 {
		payloads = (&repro.PayloadSpec{MinBytes: *payloadMin, MaxBytes: *payloadMax}).Materialize(len(keys), *seed)
	}

	ds, err := repro.NewDistSorter(repro.DistConfig{
		Workers:        strings.Split(*workers, ","),
		PageKeys:       *page,
		Concurrency:    *conc,
		RequestTimeout: *timeout,
		Alg:            shardAlg,
		BlockLatencyUS: *latencyUS,
		Label:          *label,
	})
	if err != nil {
		return err
	}

	// Ctrl-C cancels the distributed job, which fans the cancel out to
	// every worker before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		sorted []int64
		rep    *repro.DistReport
	)
	if payloads != nil {
		sorted, _, rep, err = ds.SortRecords(ctx, keys, payloads)
	} else {
		sorted, rep, err = ds.Sort(ctx, keys)
	}
	if err != nil {
		return err
	}
	if !slices.IsSorted(sorted) {
		return fmt.Errorf("sort: merged output is not sorted (coordinator bug)")
	}
	return printJSON(rep)
}
