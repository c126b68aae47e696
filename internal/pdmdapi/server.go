package pdmdapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/plan"
	"repro/internal/wire"
	"repro/internal/wordview"
)

// Options sizes the handler's own limits (everything else is budgeted by
// the scheduler it fronts).
type Options struct {
	// MaxBody caps one request body in bytes; <= 0 selects 64 MiB.
	MaxBody int64
	// MaxStagedBytes caps the total bytes held by in-flight staged uploads
	// across all clients, and apart from them the key buffers finished
	// uploads and decoded request bodies released for the next pages and
	// bodies to reuse; <= 0 selects 256 MiB.
	MaxStagedBytes int64
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ —
	// opt-in, because profiling endpoints on a job API are an operator
	// decision, not a default.
	Pprof bool
}

// uploadTTL drops staged uploads (and commit tombstones) not touched for
// this long, so a dead coordinator cannot pin staging forever.
const uploadTTL = 15 * time.Minute

// SubmitRequest is the POST /jobs body (and, minus the inline input, the
// POST /uploads/{id}/commit body): the one job descriptor, decoded as-is.
// Its "alg" takes the short names repro.ParseAlgorithm lists; "radix"
// selects the Section 7 RadixSort, whose key universe defaults to 2^32
// unless set.
type SubmitRequest = repro.JobSpec

// server wraps the scheduler with the HTTP surface.
type server struct {
	sch  *repro.Scheduler
	opts Options
	ups  *uploadStore
}

// New builds the pdmd handler around a scheduler.  cmd/pdmd serves it;
// tests and benchmarks mount it on httptest to get in-process worker
// nodes.
func New(sch *repro.Scheduler, opts Options) http.Handler {
	_, h := newServer(sch, opts)
	return h
}

// newServer is New, with the server behind the handler.
func newServer(sch *repro.Scheduler, opts Options) (*server, http.Handler) {
	if opts.MaxBody <= 0 {
		opts.MaxBody = 64 << 20
	}
	if opts.MaxStagedBytes <= 0 {
		opts.MaxStagedBytes = 256 << 20
	}
	s := &server{sch: sch, opts: opts, ups: newUploadStore(opts.MaxStagedBytes, uploadTTL)}
	mux := http.NewServeMux()
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /plan", s.plan)
	mux.HandleFunc("POST /plan", s.plan)
	mux.HandleFunc("GET /plan/scenario", s.planScenario)
	mux.HandleFunc("POST /plan/scenario", s.planScenario)
	mux.HandleFunc("GET /jobs", s.list)
	mux.HandleFunc("GET /jobs/{id}", s.status)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("GET /jobs/{id}/keys", s.keys)
	mux.HandleFunc("GET /jobs/{id}/records", s.records)
	mux.HandleFunc("GET /jobs/{id}/result", s.result)
	mux.HandleFunc("DELETE /jobs/{id}/result", s.dropResult)
	mux.HandleFunc("GET /jobs/{id}/groups", s.groups)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("POST /uploads", s.uploadCreate)
	mux.HandleFunc("POST /uploads/{id}/pages", s.uploadPage)
	mux.HandleFunc("POST /uploads/{id}/commit", s.uploadCommit)
	mux.HandleFunc("DELETE /uploads/{id}", s.uploadAbort)
	return s, mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// healthz is the coordinator's liveness probe: cheap (no allocation beyond
// the snapshot, no locks held across I/O), and carrying the default job
// geometry so a distributed-sort coordinator can plan shards for this node
// before submitting anything.  Accept-Post offers binary upload pages.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Accept-Post", wire.PageContentType)
	writeJSON(w, http.StatusOK, s.sch.Health())
}

// decodeBody reads one JSON request body into v under the size cap and
// the rules every endpoint shares (wire.DecodeJSON).  A declared length
// past the cap is refused before anything is read; one within it is read
// into a released staging buffer of the upload store, viewed as bytes,
// which goes back to the store once the decode has copied everything out
// of it.  So a warm server allocates no body buffer.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.ContentLength > s.opts.MaxBody {
		return bodyOK(w, &http.MaxBytesError{Limit: s.opts.MaxBody})
	}
	rd := http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	var body []byte
	var err error
	if r.ContentLength < 0 {
		body, err = io.ReadAll(rd) // a chunked body
	} else {
		words := int((r.ContentLength + 7) / 8)
		buf := s.ups.takeKeys(words)
		if buf == nil {
			buf = make([]int64, words)
		}
		defer s.ups.giveKeys(buf)
		body = wordview.Bytes(buf)[:r.ContentLength]
		_, err = io.ReadFull(rd, body)
	}
	if err == nil {
		err = wire.DecodeJSON(body, v)
	}
	return bodyOK(w, err)
}

// readPage is decodeBody for a binary upload page body.  Its buffers are
// sized from Content-Length, so the cap is checked before anything is
// allocated, and its keys decode into a released staging buffer when the
// store holds one as long as a keys page of that size.
func (s *server) readPage(r *http.Request) (wire.Page, error) {
	if r.ContentLength > s.opts.MaxBody {
		return wire.Page{}, &http.MaxBytesError{Limit: s.opts.MaxBody}
	}
	dst := s.ups.takeKeys(int(r.ContentLength-int64(wire.Page{}.BinaryLen())) / 8)
	return wire.ReadPage(r.Body, r.ContentLength, dst)
}

// bodyOK answers a body that failed to decode: 413 past the cap, else 400.
func bodyOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("bad request body: %w", err))
	return false
}

// writePage answers a keys or records page in the encoding the request's
// Accept asked for: the binary body if it lists it, JSON otherwise.
func writePage(w http.ResponseWriter, r *http.Request, pg wire.Page) {
	if !strings.Contains(r.Header.Get("Accept"), wire.PageContentType) {
		w.Header().Set("Content-Type", "application/json")
		pg.WriteJSON(w) //nolint:errcheck // client went away
		return
	}
	w.Header().Set("Content-Type", wire.PageContentType)
	w.Header().Set("Content-Length", strconv.Itoa(pg.BinaryLen()))
	pg.WriteBinary(w) //nolint:errcheck // client went away
}

// decodeSpec reads a submit (or plan) body into the job descriptor.  The
// scheduler budgets every byte a job holds; the decode must not be the
// unbudgeted exception, hence decodeBody's hard cap.  Validation is the
// scheduler's (JobSpec.Validate plus its own defaults), the same as for a
// library caller.
func (s *server) decodeSpec(w http.ResponseWriter, r *http.Request) (repro.JobSpec, bool) {
	var spec repro.JobSpec
	return spec, s.decodeBody(w, r, &spec)
}

// submitSpec runs the shared admission path: submit, classify the error,
// answer with the job's initial status.
func (s *server) submitSpec(w http.ResponseWriter, spec repro.JobSpec) (int, bool) {
	id, err := s.sch.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, repro.ErrQueueFull) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return 0, false
	}
	st, _ := s.sch.Status(id)
	writeJSON(w, http.StatusAccepted, st)
	return id, true
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	s.submitSpec(w, spec)
}

// plan dry-runs the cost model for a would-be job: the body is the same
// JSON a submit takes, the answer the ranked candidate table (predicted
// passes, padded lengths, I/O words, calibrated seconds) with the chosen
// algorithm — no job is created and no resources are reserved.  Accepted
// on GET (the spec is a query, not a mutation) and POST (for clients that
// refuse GET bodies).
func (s *server) plan(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	rep, err := s.sch.Explain(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *server) jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	st, ok := s.sch.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sch.Jobs())
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	if !s.sch.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %d", id))
		return
	}
	st, _ := s.sch.Status(id)
	writeJSON(w, http.StatusOK, st)
}

func (s *server) keys(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	keys, err := s.sch.SortedKeys(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	offset, limit, ok := pageBounds(w, r, len(keys))
	if !ok {
		return
	}
	writePage(w, r, wire.Page{N: len(keys), Offset: offset, Keys: keys[offset : offset+limit]})
}

// records serves a completed records job's sorted output — keys paired
// with payloads (base64 in the JSON body) — with the same pagination
// contract as keys.
func (s *server) records(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	keys, payloads, err := s.sch.SortedRecords(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	offset, limit, ok := pageBounds(w, r, len(keys))
	if !ok {
		return
	}
	writePage(w, r, wire.Page{N: len(keys), Offset: offset,
		Keys: keys[offset : offset+limit], Payloads: payloads[offset : offset+limit]})
}

// planScenario dry-runs the scenario planner: the same body as a scenario
// submit, the answer the scenario route's predicted steps and passes
// against the full-sort alternative — no job is created.
func (s *server) planScenario(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	rep, err := s.sch.ExplainScenario(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// result serves a completed scenario job's answer: the quantile value
// inline, and the result keys (top-K, or the merged ingest output of a
// KeepKeys job) under the shared pagination contract.  Group-by results
// live on /groups.
func (s *server) result(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	res, err := s.sch.ScenarioResult(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	offset, limit, ok := pageBounds(w, r, len(res.Keys))
	if !ok {
		return
	}
	body := map[string]any{
		"kind":   res.Kind,
		"n":      len(res.Keys),
		"offset": offset,
		"keys":   res.Keys[offset : offset+limit],
	}
	if res.Value != nil {
		body["value"] = *res.Value
	}
	if res.Groups != nil {
		body["groups"] = len(res.Groups)
	}
	writeJSON(w, http.StatusOK, body)
}

// dropResult drops the output a job keeps and answers its status, which
// stays.
func (s *server) dropResult(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	if err := s.sch.DropResult(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st, _ := s.sch.Status(id)
	writeJSON(w, http.StatusOK, st)
}

// groups serves a completed group-by job's aggregates, sorted by key, with
// the same pagination contract as keys.
func (s *server) groups(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	res, err := s.sch.ScenarioResult(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if res.Kind != plan.KindGroupBy {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %d is a %q scenario, not groupby", id, res.Kind))
		return
	}
	offset, limit, ok := pageBounds(w, r, len(res.Groups))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"n":      len(res.Groups),
		"offset": offset,
		"groups": res.Groups[offset : offset+limit],
	})
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sch.Stats())
}

// metrics renders the aggregate statistics in Prometheus text format: the
// per-job pass/overlap/utilization observability rolled up for scraping.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	st := s.sch.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# TYPE pdmd_jobs_total counter\n")
	p("pdmd_jobs_total{state=\"submitted\"} %d\n", st.Submitted)
	p("pdmd_jobs_total{state=\"completed\"} %d\n", st.Completed)
	p("pdmd_jobs_total{state=\"failed\"} %d\n", st.Failed)
	p("pdmd_jobs_total{state=\"canceled\"} %d\n", st.Canceled)
	p("# TYPE pdmd_jobs gauge\n")
	p("pdmd_jobs{state=\"queued\"} %d\n", st.Queued)
	p("pdmd_jobs{state=\"running\"} %d\n", st.Running)
	p("pdmd_jobs{state=\"suspended\"} %d\n", st.Suspended)
	p("# TYPE pdmd_mem_keys gauge\n")
	p("pdmd_mem_keys{kind=\"in_use\"} %d\n", st.MemInUse)
	p("pdmd_mem_keys{kind=\"capacity\"} %d\n", st.MemCapacity)
	p("# TYPE pdmd_disk_keys gauge\n")
	p("pdmd_disk_keys{kind=\"in_use\"} %d\n", st.DiskInUse)
	p("pdmd_disk_keys{kind=\"capacity\"} %d\n", st.DiskCapacity)
	p("# TYPE pdmd_workers gauge\npdmd_workers %d\n", st.Workers)
	p("# TYPE pdmd_scratch_cleanup_failures_total counter\npdmd_scratch_cleanup_failures_total %d\n", st.CleanupFailures)
	p("# TYPE pdmd_keys_sorted_total counter\npdmd_keys_sorted_total %d\n", st.KeysSorted)
	p("# TYPE pdmd_passes_weighted_avg gauge\npdmd_passes_weighted_avg %g\n", st.PassesWeighted)
	p("# TYPE pdmd_prefetch_chunks_total counter\n")
	p("pdmd_prefetch_chunks_total{result=\"hit\"} %d\n", st.PrefetchHits)
	p("pdmd_prefetch_chunks_total{result=\"stall\"} %d\n", st.PrefetchStalls)
	p("# TYPE pdmd_write_stalls_total counter\npdmd_write_stalls_total %d\n", st.WriteStalls)
	p("# TYPE pdmd_compute_seconds_total counter\npdmd_compute_seconds_total %g\n", st.ComputeSeconds)
	p("# TYPE pdmd_worker_utilization gauge\npdmd_worker_utilization %g\n", st.WorkerUtilization)
	p("# TYPE pdmd_jobs_per_second gauge\npdmd_jobs_per_second %g\n", st.JobsPerSecond)
	p("# TYPE pdmd_uptime_seconds gauge\npdmd_uptime_seconds %g\n", st.UptimeSeconds)
	p("# TYPE pdmd_staged_uploads gauge\npdmd_staged_uploads %d\n", s.ups.count())
	p("# TYPE pdmd_staged_bytes gauge\npdmd_staged_bytes %d\n", s.ups.bytes())
	// Durability: recovery outcomes this life, plus write-ahead-log health.
	// All zero on an unjournaled daemon, emitted anyway so dashboards keyed
	// on these series never see them disappear.
	p("# TYPE pdmd_jobs_recovered_total counter\npdmd_jobs_recovered_total %d\n", st.Recovered)
	p("# TYPE pdmd_jobs_resumed_total counter\npdmd_jobs_resumed_total %d\n", st.JobsResumed)
	p("# TYPE pdmd_jobs_restarted_total counter\npdmd_jobs_restarted_total %d\n", st.JobsRestarted)
	p("# TYPE pdmd_scratch_orphans_swept_total counter\npdmd_scratch_orphans_swept_total %d\n", st.OrphansSwept)
	p("# TYPE pdmd_journal_bytes gauge\npdmd_journal_bytes %d\n", st.JournalBytes)
	p("# TYPE pdmd_journal_input_bytes gauge\npdmd_journal_input_bytes %d\n", st.JournalInputBytes)
	p("# TYPE pdmd_journal_segments gauge\npdmd_journal_segments %d\n", st.JournalSegments)
	p("# TYPE pdmd_journal_appends_total counter\npdmd_journal_appends_total %d\n", st.JournalAppends)
	p("# TYPE pdmd_journal_fsync_errors_total counter\npdmd_journal_fsync_errors_total %d\n", st.JournalFsyncErrors)
	p("# TYPE pdmd_journal_compactions_total counter\npdmd_journal_compactions_total %d\n", st.JournalCompactions)
	p("# TYPE pdmd_journal_replayed_records counter\npdmd_journal_replayed_records %d\n", st.JournalReplayed)
	p("# TYPE pdmd_journal_torn_tails_total counter\npdmd_journal_torn_tails_total %d\n", st.JournalTornTails)
	p("# TYPE pdmd_journal_replay_errors_total counter\npdmd_journal_replay_errors_total %d\n", st.JournalReplayErrors)
}
