// Package wire holds the JSON shapes that travel between the layers of the
// service — facade, HTTP API, journal, distributed coordinator, CLIs — so
// each is declared exactly once: the job descriptor (JobSpec) with its
// validation beside it, and the status, report, health, and page shapes
// the server writes and the clients read back.  The root package
// re-exports them under its public names (repro.JobSpec, repro.JobStatus,
// repro.Report, …); internal/pdmdapi decodes request bodies straight into
// them, the scheduler journals them as-is, and internal/dist sends and
// receives them.
//
// Adding a per-job option is one field on JobSpec plus its use: every hop
// carries the whole descriptor, so nothing else needs to learn the field.
//
// The int64 key columns cross one hand-written JSON codec.  DecodeJSON
// parses a JobSpec's "keys" and "groupPayloads" without reflection and
// leaves the rest to encoding/json, or the whole body when it is not of
// that shape: its values and errors are encoding/json's by construction,
// with FuzzDecodeJobSpec holding it to that oracle.  Page.WriteJSON writes
// encoding/json's page bytes exactly, allocating nothing per page.
package wire

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/workload"
)

// WorkloadSpec asks the service to generate a job's input instead of
// shipping keys inline, naming a generator from the workload suite.
type WorkloadSpec struct {
	// Kind selects the distribution: "perm" (random permutation),
	// "uniform", "zipf" (skewed duplicates over a scattered hot-key set),
	// "sortedruns" (concatenation of pre-sorted runs), "sorted",
	// "reverse", "nearlysorted", "fewdistinct", or "organ".
	Kind string `json:"kind"`
	// N is the number of keys.
	N int `json:"n"`
	// Seed makes the input reproducible.
	Seed int64 `json:"seed"`
	// S is the Zipf exponent for "zipf" (0 selects 1.2).
	S float64 `json:"s,omitempty"`
	// Distinct bounds the distinct values for "zipf" and "fewdistinct"
	// (0 selects N/16+1).
	Distinct int `json:"distinct,omitempty"`
	// RunLen is the presorted-run length for "sortedruns" and the window
	// for "nearlysorted" (0 selects √N, min 2).
	RunLen int `json:"runlen,omitempty"`
	// Payload, when set, attaches a generated byte payload to every key:
	// the job becomes a full-record sort (SortRecords) whose payloads move
	// through the external permutation pass.
	Payload *PayloadSpec `json:"payload,omitempty"`
}

// PayloadSpec describes generated per-record payloads: each record gets a
// deterministic pseudo-random byte string whose length is uniform in
// [MinBytes, MaxBytes] (fixed-width when they are equal).
type PayloadSpec struct {
	MinBytes int `json:"minBytes"`
	MaxBytes int `json:"maxBytes"`
}

// validate rejects unusable payload bounds at submit time.  MaxBytes also
// bounds the job's disk envelope, so it must be explicit.
func (ps *PayloadSpec) validate() error {
	switch {
	case ps.MinBytes < 0:
		return fmt.Errorf("repro: payload minBytes = %d, want >= 0", ps.MinBytes)
	case ps.MaxBytes < ps.MinBytes:
		return fmt.Errorf("repro: payload maxBytes = %d below minBytes = %d", ps.MaxBytes, ps.MinBytes)
	case ps.MaxBytes > 1<<20:
		return fmt.Errorf("repro: payload maxBytes = %d exceeds the 1 MiB per-record cap", ps.MaxBytes)
	}
	return nil
}

// Materialize builds n payloads from the spec, deterministically in
// (n, seed) — the generator records jobs use server-side, exported for
// harnesses and benchmarks.
func (ps *PayloadSpec) Materialize(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x7061796c6f616421)) // "payload!"
	out := make([][]byte, n)
	for i := range out {
		ln := ps.MinBytes
		if ps.MaxBytes > ps.MinBytes {
			ln += rng.Intn(ps.MaxBytes - ps.MinBytes + 1)
		}
		p := make([]byte, ln)
		rng.Read(p)
		out[i] = p
	}
	return out
}

// Generate materializes the described input.
func (w *WorkloadSpec) Generate() ([]int64, error) {
	if w.N <= 0 {
		return nil, fmt.Errorf("repro: workload n = %d, want > 0", w.N)
	}
	distinct := w.Distinct
	if distinct <= 0 {
		distinct = w.N/16 + 1
	}
	runLen := w.RunLen
	if runLen <= 0 {
		runLen = memsort.Isqrt(w.N)
		if runLen < 2 {
			runLen = 2
		}
	}
	s := w.S
	if !(s > 1) {
		s = 1.2 // rand.NewZipf requires s > 1; clamp untrusted input
	}
	switch w.Kind {
	case "perm", "":
		return workload.Perm(w.N, w.Seed), nil
	case "uniform":
		return workload.Uniform(w.N, -1<<40, 1<<40, w.Seed), nil
	case "zipf":
		return workload.ZipfSkewed(w.N, s, distinct, w.Seed), nil
	case "sortedruns":
		return workload.SortedRuns(w.N, runLen, w.Seed), nil
	case "sorted":
		return workload.Sorted(w.N), nil
	case "reverse":
		return workload.ReverseSorted(w.N), nil
	case "nearlysorted":
		return workload.NearlySorted(w.N, runLen, w.Seed), nil
	case "fewdistinct":
		return workload.FewDistinct(w.N, distinct, w.Seed), nil
	case "organ":
		return workload.Organ(w.N), nil
	default:
		return nil, fmt.Errorf("repro: unknown workload kind %q", w.Kind)
	}
}

// JobSpec is the one job descriptor: what a library caller hands
// Scheduler.Submit, the POST /jobs body (and, minus the inline input, the
// POST /uploads/{id}/commit body), the journal's submission record (Keys and
// Payloads apart, in a file), and what the distributed coordinator sends.
type JobSpec struct {
	// Keys is the inline input.  The scheduler takes ownership and sorts
	// it in place (no private copy), so callers must not touch the slice
	// until the job finishes.  Exactly one of Keys and Workload is set.
	Keys []int64 `json:"keys,omitempty"`
	// Payloads, when set alongside Keys, makes the job a full-record sort:
	// Payloads[i] (base64 on the wire) rides with Keys[i] through
	// SortRecords and the external permutation pass.  len(Payloads) must
	// equal len(Keys).  The scheduler takes ownership, exactly as with Keys.
	Payloads [][]byte `json:"payloads,omitempty"`
	// Workload generates the input server-side (including per-record
	// payloads when Workload.Payload is set).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Alg names the algorithm by its short name (core.AlgNames lists them;
	// empty or "auto" plans from N).  "radix" selects the Section 7
	// RadixSort over [0, Universe).  Scenario jobs must leave it Auto.
	Alg core.Alg `json:"alg,omitempty"`
	// Universe is the RadixSort key universe; only valid with Alg "radix",
	// where zero selects 2^32.
	Universe int64 `json:"universe,omitempty"`
	// Memory and Disks give the job its machine geometry (0 = scheduler
	// defaults).
	Memory int `json:"memory,omitempty"`
	Disks  int `json:"disks,omitempty"`
	// Workers is the job's fan-out width (0 = the scheduler's Workers);
	// execution is arbitrated by the shared limiter either way.
	Workers int `json:"workers,omitempty"`
	// Pipeline overrides the scheduler's default streaming depth.
	Pipeline *pdm.PipelineConfig `json:"pipeline,omitempty"`
	// Backend overrides the scheduler's disk backend for this job ("file"
	// or "mmap"); only valid on a file-backed scheduler.
	Backend string `json:"backend,omitempty"`
	// BlockLatencyUS models per-block device latency on the job's disks,
	// in microseconds.
	BlockLatencyUS int64 `json:"blockLatencyUs,omitempty"`
	// KeepKeys retains the sorted output for SortedKeys until the
	// scheduler is closed or DropResult (DELETE /jobs/{id}/result) drops
	// it; a distributed sort's coordinator drops each shard's once it has
	// downloaded it.
	KeepKeys bool `json:"keepKeys,omitempty"`
	// Label tags the job in status reports.
	Label string `json:"label,omitempty"`

	// Scenario, when set, makes this a query-scenario job instead of a
	// sort: one of internal/plan's scenario kinds (topk, quantile, groupby,
	// ingest) over Keys (or the workload-generated input).  The machine prices the scenario route
	// against the full sort and runs whichever is cheaper; the result is
	// read back with ScenarioResult (GET /jobs/{id}/result, and /groups
	// for groupby).  Scenario jobs exclude a forced Alg, Universe, and
	// byte Payloads.
	Scenario string `json:"scenario,omitempty"`
	// TopK is the top-K count (Scenario topk).
	TopK int `json:"topK,omitempty"`
	// Rank is the 1-indexed target rank (Scenario quantile).
	Rank int `json:"rank,omitempty"`
	// Groups hints the distinct group count for route planning (Scenario
	// groupby; <= 0 plans for the worst case).
	Groups int `json:"groups,omitempty"`
	// GroupPayloads is the optional aggregation payload column (Scenario
	// groupby): GroupPayloads[i] rides with Keys[i].  Requires inline
	// Keys of the same length.
	GroupPayloads []int64 `json:"groupPayloads,omitempty"`
	// IngestBatch is the new batch folded into the sorted Keys dataset
	// (Scenario ingest).  Keys must already be ascending.
	IngestBatch []int64 `json:"ingestBatch,omitempty"`
}

// DefaultUniverse is the RadixSort key universe of a job that names
// "alg":"radix" without one.
const DefaultUniverse = 1 << 32

// N is the job's working-set size in keys: the inline or generated input,
// plus the batch an ingest folds in.
func (s *JobSpec) N() int {
	n := len(s.Keys)
	if s.Workload != nil {
		n = s.Workload.N
	}
	return n + len(s.IngestBatch)
}

// IsRecords reports whether the job sorts full records (keys with byte
// payloads, inline or generated).
func (s *JobSpec) IsRecords() bool {
	return s.Payloads != nil || (s.Workload != nil && s.Workload.Payload != nil)
}

// RadixUniverse is the key universe a RadixSort job runs over, the default
// applied; zero for every other job.
func (s *JobSpec) RadixUniverse() int64 {
	switch {
	case s.Alg != core.AlgRadix:
		return 0
	case s.Universe == 0:
		return DefaultUniverse
	}
	return s.Universe
}

// Validate checks everything about a descriptor that does not depend on
// the scheduler it is submitted to: the input shape and the cross-field
// rules between alg, universe, scenario, payloads, and the scenario
// parameters.  Every door a job comes through — Scheduler.Submit, POST
// /jobs, an upload commit, journal replay — runs this one function, so
// they cannot disagree.  (Geometry and backend are checked where the
// scheduler's defaults are known.)  Alg is canonicalised in place, so
// a Go caller's Alg: "auto" means what it means on the wire.
func (s *JobSpec) Validate() error {
	alg, err := core.ParseAlg(string(s.Alg))
	if err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	s.Alg = alg
	if s.Payloads != nil {
		if s.Workload != nil {
			return fmt.Errorf("repro: inline payloads require inline keys, not a workload")
		}
		if len(s.Payloads) != len(s.Keys) {
			return fmt.Errorf("repro: %d keys but %d payloads", len(s.Keys), len(s.Payloads))
		}
	}
	if w := s.Workload; w != nil {
		if len(s.Keys) > 0 {
			return fmt.Errorf("repro: JobSpec has both inline keys and a workload")
		}
		if _, err := (&WorkloadSpec{Kind: w.Kind, N: 1}).Generate(); err != nil {
			return err // unknown kind, reported at submit time
		}
		if w.Payload != nil {
			if err := w.Payload.validate(); err != nil {
				return err
			}
		}
	}
	if s.Scenario != "" {
		if err := s.validateScenario(); err != nil {
			return err
		}
	} else if len(s.IngestBatch) > 0 || s.GroupPayloads != nil {
		return fmt.Errorf("repro: ingestBatch/groupPayloads are only valid on scenario jobs")
	}
	if s.N() <= 0 {
		return fmt.Errorf("repro: empty job (no keys, no workload)")
	}
	switch {
	case s.Alg != core.AlgRadix && s.Universe != 0:
		return fmt.Errorf("repro: universe is only valid with alg=radix")
	case s.Universe < 0:
		return fmt.Errorf("repro: universe %d, want > 0", s.Universe)
	case s.Universe > math.MaxInt64-1:
		return fmt.Errorf("repro: universe %d out of range", s.Universe)
	case s.Alg == core.AlgRadix && s.IsRecords():
		return fmt.Errorf("repro: record payloads need a comparison sort, not RadixSort (alg=radix)")
	}
	return nil
}

// validateScenario is Validate's scenario half: the kind, what a scenario
// job may not carry, and the kind's parameters against the input size.
func (s *JobSpec) validateScenario() error {
	// Scenario routes plan their own (fallback) sort; a forced algorithm
	// or a radix universe contradicts that.
	if s.Alg != core.AlgAuto {
		return fmt.Errorf("repro: alg %q is not valid on a scenario job (the planner picks)", string(s.Alg))
	}
	if s.Universe != 0 {
		return fmt.Errorf("repro: scenario %q jobs use comparison sorts, not RadixSort (universe)", s.Scenario)
	}
	if s.IsRecords() {
		return fmt.Errorf("repro: scenario %q jobs take no byte payloads (group-by aggregates groupPayloads)", s.Scenario)
	}
	if len(s.IngestBatch) > 0 && s.Scenario != plan.KindIngest {
		return fmt.Errorf("repro: ingestBatch is only valid with scenario %q, not %q", plan.KindIngest, s.Scenario)
	}
	if s.GroupPayloads != nil {
		switch {
		case s.Scenario != plan.KindGroupBy:
			return fmt.Errorf("repro: groupPayloads are only valid with scenario %q, not %q", plan.KindGroupBy, s.Scenario)
		case s.Workload != nil:
			return fmt.Errorf("repro: groupPayloads require inline keys, not a workload")
		case len(s.GroupPayloads) != len(s.Keys):
			return fmt.Errorf("repro: %d keys but %d groupPayloads", len(s.Keys), len(s.GroupPayloads))
		}
	}
	if s.Scenario == plan.KindIngest && s.Workload != nil && s.Workload.Kind != "sorted" {
		return fmt.Errorf("repro: ingest needs a sorted dataset; workload kind %q is not %q", s.Workload.Kind, "sorted")
	}
	// The kind itself and its parameters against the input size: the
	// planner's scenario table holds those rules.
	if err := s.ScenarioQuery().Validate(); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// ScenarioQuery is the planner's view of a scenario job: the kind, the
// dataset size (the ingest batch counted apart) and the kind's parameters.
// Validation, envelope sizing, the dry-run plan and the recorded
// prediction all price this one value.
func (s *JobSpec) ScenarioQuery() plan.ScenarioQuery {
	q := plan.ScenarioQuery{
		Kind: s.Scenario, N: s.N() - len(s.IngestBatch),
		K: s.TopK, Rank: s.Rank, Groups: s.Groups,
		PairWords: 1, Batch: len(s.IngestBatch),
	}
	if s.GroupPayloads != nil {
		q.PairWords = 2
	}
	return q
}
