package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/pdmdapi"
)

// node is one in-process pdmd: a scheduler behind the real pdmdapi handler
// on a loopback listener, with the bench's middleware around it when the
// instance is traced.
type node struct {
	sch  *repro.Scheduler
	srv  *httptest.Server
	errs atomic.Int64 // HTTP answers with status >= 400, traced instances only
}

func startNode(cfg repro.SchedulerConfig, tr *tracer) (*node, error) {
	sch, err := repro.NewScheduler(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{sch: sch}
	h := pdmdapi.New(sch, pdmdapi.Options{})
	if tr != nil {
		h = traceHandler(tr, &n.errs, h)
	}
	n.srv = httptest.NewServer(h)
	return n, nil
}

func (n *node) stop() {
	n.srv.Close()
	n.sch.Close()
}

// newTransport is a private connection pool wide enough that closed-loop
// clients and page fan-out reuse connections instead of redialling.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
}

// serveWL is serve-durable: closed-loop HTTP clients against a journaled,
// file-backed scheduler.  Each client submits its own inline key set, polls
// the job every millisecond, pages the result out and verifies it.
type serveWL struct {
	sc     scale
	tr     *tracer
	node   *node
	tp     *http.Transport
	hc     *http.Client
	bodies [][]byte  // per client: the encoded POST /jobs body
	want   [][]int64 // per client: the sorted oracle

	mu                                   sync.Mutex
	lastJournalBytes, journalBytes       int64
	lastAppends, lastCompact, lastFailed int64
}

const serveClients = 2

func newServeWL(e runEnv) (workload, error) {
	n, err := startNode(repro.SchedulerConfig{
		Memory: 64 * e.sc.ServeMem, Workers: runtime.NumCPU(), JobMemory: e.sc.ServeMem,
		Dir: filepath.Join(e.dir, "jobs"), JournalDir: filepath.Join(e.dir, "journal"),
		Pipeline: pipeline,
	}, e.tr)
	if err != nil {
		return nil, err
	}
	w := &serveWL{sc: e.sc, tr: e.tr, node: n, tp: newTransport()}
	w.hc = &http.Client{Transport: w.tp}
	for c := 0; c < serveClients; c++ {
		keys, err := generate("uniform", e.sc.ServeN, e.seed+int64(c))
		if err != nil {
			w.close()
			return nil, err
		}
		body, err := json.Marshal(pdmdapi.SubmitRequest{Keys: keys, Alg: "lmm3", KeepKeys: true, Label: "bench"})
		if err != nil {
			w.close()
			return nil, err
		}
		slices.Sort(keys)
		w.bodies, w.want = append(w.bodies, body), append(w.want, keys)
	}
	return w, nil
}

func (w *serveWL) clients() int { return serveClients }
func (w *serveWL) warmups() int { return 2 * serveClients }

func (w *serveWL) close() error {
	w.tp.CloseIdleConnections()
	w.node.stop()
	return nil
}

// wireCount is one op's client-side request accounting.
type wireCount struct {
	requests, polls int
	bytes           int64
}

// call makes one request and decodes the JSON answer into out, under a
// "pdmdapi.<kind>" span that covers reading the body.
func (w *serveWL) call(op int, parent spanID, kind, method, path string, body []byte, out any, wc *wireCount) error {
	sp := w.tr.begin(op, parent, "pdmdapi."+kind)
	defer w.tr.end(sp)
	req, err := http.NewRequestWithContext(context.Background(), method, w.node.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if w.tr != nil {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	wc.requests++
	wc.bytes += int64(len(body) + len(raw))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

func (w *serveWL) op(client, id int) (opStats, error) {
	st := opStats{words: w.sc.ServeN}
	var wc wireCount
	t0 := time.Now()
	root := w.tr.begin(id, noSpan, "client.op")
	js, out, err := w.job(client, id, root, &wc)
	w.tr.end(root)
	st.wall = time.Since(t0)
	if err != nil {
		return st, err
	}
	// The job's own timeline, from its status timestamps, as sched spans.
	w.tr.add(id, root, "sched.queue", js.Submitted, js.Started)
	w.tr.add(id, root, "sched.run", js.Started, js.Finished)
	if js.Report == nil {
		return st, fmt.Errorf("serve-durable: job %d finished without a report", js.ID)
	}
	st.passes, st.facts = js.Report.Passes, reportFacts(js.Report)
	st.facts["sched.queue_wait_ms"] = js.Started.Sub(js.Submitted).Seconds() * 1e3
	st.facts["sched.run_ms"] = js.Finished.Sub(js.Started).Seconds() * 1e3
	st.facts["plan.prediction_rel_error"] = js.PredictionError
	st.facts["pdm.scratch_words_peak"] = float64(js.DiskFootprint)
	st.facts["pdmdapi.requests_per_op"] = float64(wc.requests)
	st.facts["pdmdapi.polls_per_job"] = float64(wc.polls)
	st.facts["pdmdapi.wire_bytes_per_key"] = float64(wc.bytes) / float64(w.sc.ServeN)
	w.noteJournal()
	return st, verifyEqual(out, w.want[client])
}

// job is the service user's op: submit, poll to done, page the result out.
func (w *serveWL) job(client, op int, root spanID, wc *wireCount) (repro.JobStatus, []int64, error) {
	var js repro.JobStatus
	if err := w.call(op, root, "submit", http.MethodPost, "/jobs", w.bodies[client], &js, wc); err != nil {
		return js, nil, err
	}
	path := "/jobs/" + strconv.Itoa(js.ID)
	for js.State == repro.JobQueued || js.State == repro.JobRunning {
		time.Sleep(time.Millisecond)
		wc.polls++
		if err := w.call(op, root, "status", http.MethodGet, path, nil, &js, wc); err != nil {
			return js, nil, err
		}
	}
	if js.State != repro.JobDone {
		return js, nil, fmt.Errorf("serve-durable: job %d ended %s: %s", js.ID, js.State, js.Error)
	}
	out := make([]int64, 0, js.N)
	for off := 0; off < js.N; off += w.sc.PageKeys {
		var pg struct {
			Keys []int64 `json:"keys"`
		}
		q := fmt.Sprintf("%s/keys?offset=%d&limit=%d", path, off, w.sc.PageKeys)
		if err := w.call(op, root, "page", http.MethodGet, q, nil, &pg, wc); err != nil {
			return js, nil, err
		}
		out = append(out, pg.Keys...)
	}
	return js, out, nil
}

// noteJournal accumulates the journal's growth after an op.  Compaction
// shrinks the log, so only growth is summed.
func (w *serveWL) noteJournal() {
	b := w.node.sch.Stats().JournalBytes
	w.mu.Lock()
	if b > w.lastJournalBytes {
		w.journalBytes += b - w.lastJournalBytes
	}
	w.lastJournalBytes = b
	w.mu.Unlock()
}

func (w *serveWL) phaseFacts(ops int) map[string]float64 {
	s := w.node.sch.Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	f := map[string]float64{
		"journal.compactions": float64(s.JournalCompactions - w.lastCompact),
		"sched.jobs_failed":   float64(int64(s.Failed) - w.lastFailed),
		"pdmdapi.http_errors": float64(w.node.errs.Swap(0)),
	}
	if ops > 0 {
		f["journal.appends_per_job"] = float64(s.JournalAppends-w.lastAppends) / float64(ops)
		f["journal.bytes_per_job"] = float64(w.journalBytes) / float64(ops)
	}
	w.lastAppends, w.lastCompact, w.lastFailed, w.journalBytes = s.JournalAppends, s.JournalCompactions, int64(s.Failed), 0
	return f
}

// distWL is dist-2w: the distributed sorter over two in-process workers.
type distWL struct {
	sc    scale
	tr    *tracer
	nodes []*node
	tp    *http.Transport
	rt    *spanTransport
	ds    *repro.DistSorter
	keys  []int64
	want  []int64
}

const distWorkers = 2

func newDistWL(e runEnv) (workload, error) {
	keys, err := generate("uniform", e.sc.DistN, e.seed)
	if err != nil {
		return nil, err
	}
	w := &distWL{sc: e.sc, tr: e.tr, keys: keys, want: slices.Clone(keys), tp: newTransport()}
	slices.Sort(w.want)
	var urls []string
	for i := 0; i < distWorkers; i++ {
		// Workers: 1 each, so the two-node fleet fits this box's cores.
		n, err := startNode(repro.SchedulerConfig{
			Memory: 64 * e.sc.DistMem, Workers: 1, JobMemory: e.sc.DistMem,
			Dir: filepath.Join(e.dir, fmt.Sprintf("worker%d", i)), Pipeline: pipeline,
		}, e.tr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, n)
		urls = append(urls, n.srv.URL)
	}
	hc := &http.Client{Transport: w.tp}
	if e.tr != nil {
		w.rt = &spanTransport{tr: e.tr, next: w.tp}
		hc.Transport = w.rt
	}
	w.ds, err = repro.NewDistSorter(repro.DistConfig{
		Workers: urls, Client: hc, PageKeys: e.sc.PageKeys, Alg: "lmm3", Label: "bench",
	})
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *distWL) clients() int { return 1 }
func (w *distWL) warmups() int { return 1 }

func (w *distWL) close() error {
	w.tp.CloseIdleConnections()
	for _, n := range w.nodes {
		n.stop()
	}
	return nil
}

func (w *distWL) op(_, id int) (opStats, error) {
	st := opStats{words: len(w.keys)}
	in := slices.Clone(w.keys)
	t0 := time.Now()
	root := w.tr.begin(id, noSpan, "client.op")
	sp := w.tr.begin(id, root, "dist.sort")
	if w.rt != nil {
		w.rt.start(id, sp)
	}
	out, rep, err := w.ds.Sort(context.Background(), in)
	w.tr.end(sp)
	w.tr.end(root)
	st.wall = time.Since(t0)
	if err != nil {
		return st, err
	}
	st.passes = rep.Passes
	st.facts = map[string]float64{}
	ioFacts(st.facts, rep.IO, 1)
	// Each shard's job, as its own worker saw it.  The op waits for the
	// slowest shard, so the job-level numbers are the fleet's maxima; the
	// scratch footprint is the fleet's sum.
	maxN, maxRun, maxWait, scratch := 0, 0.0, 0.0, 0
	for i, sh := range rep.Shards {
		js, ok := w.nodes[i].sch.Status(sh.JobID)
		if !ok || js.Report == nil {
			return st, fmt.Errorf("dist-2w: shard job %d missing on worker %d", sh.JobID, i)
		}
		w.tr.add(id, sp, "sched.run", js.Started, js.Finished)
		maxN = max(maxN, sh.N)
		maxRun = max(maxRun, js.Finished.Sub(js.Started).Seconds())
		maxWait = max(maxWait, js.Started.Sub(js.Submitted).Seconds())
		scratch += js.DiskFootprint
		st.facts["core.read_passes"] = max(st.facts["core.read_passes"], js.Report.ReadPasses)
		st.facts["core.write_passes"] = max(st.facts["core.write_passes"], js.Report.WritePasses)
		st.facts["plan.prediction_rel_error"] = max(st.facts["plan.prediction_rel_error"], js.PredictionError)
	}
	st.facts["sched.queue_wait_ms"] = maxWait * 1e3
	st.facts["sched.run_ms"] = maxRun * 1e3
	st.facts["pdm.scratch_words_peak"] = float64(scratch)
	st.facts["dist.worker_sort_max_s"] = maxRun
	st.facts["dist.shard_imbalance"] = float64(maxN) * float64(len(rep.Shards)) / float64(rep.N)
	if w.rt != nil {
		w.rt.facts(st.facts, len(w.keys))
	}
	return st, verifyEqual(out, w.want)
}

func (w *distWL) phaseFacts(int) map[string]float64 {
	f := map[string]float64{}
	for _, n := range w.nodes {
		f["sched.jobs_failed"] += float64(n.sch.Stats().Failed)
		f["pdmdapi.http_errors"] += float64(n.errs.Swap(0))
	}
	return f
}

// spanTransport is the bench-owned RoundTripper under the coordinator's
// HTTP client: one client-side span per worker request, named by what the
// request is, plus byte and retry counts for the op in flight.  dist-2w
// has one client, so "the op in flight" is well defined.
type spanTransport struct {
	tr   *tracer
	next http.RoundTripper

	mu                      sync.Mutex
	op                      int
	parent                  spanID
	requests, polls, failed int
	upBytes, resultBytes    int64
	wireBytes               int64
}

func (t *spanTransport) start(op int, parent spanID) {
	t.mu.Lock()
	t.op, t.parent = op, parent
	t.requests, t.polls, t.failed = 0, 0, 0
	t.upBytes, t.resultBytes, t.wireBytes = 0, 0, 0
	t.mu.Unlock()
}

func (t *spanTransport) facts(f map[string]float64, keys int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f["pdmdapi.requests_per_op"] = float64(t.requests)
	f["pdmdapi.polls_per_job"] = float64(t.polls) / distWorkers
	f["pdmdapi.wire_bytes_per_key"] = float64(t.wireBytes) / float64(keys)
	f["dist.upload_bytes"] = float64(t.upBytes)
	f["dist.result_bytes"] = float64(t.resultBytes)
	f["dist.retries"] = float64(t.failed)
}

// requestKind names a worker request by its route.
func requestKind(method, path string) string {
	switch {
	case strings.HasSuffix(path, "/pages"):
		return "upload_page"
	case strings.HasSuffix(path, "/commit"):
		return "submit"
	case strings.HasSuffix(path, "/keys"):
		return "page"
	case method == http.MethodGet && strings.HasPrefix(path, "/jobs/"):
		return "status"
	default:
		return "other"
	}
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := requestKind(req.Method, req.URL.Path)
	t.mu.Lock()
	op, parent := t.op, t.parent
	t.mu.Unlock()
	sp := t.tr.begin(op, parent, "pdmdapi."+kind)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	resp, err := t.next.RoundTrip(req)
	sent := max(req.ContentLength, 0)
	t.mu.Lock()
	t.requests++
	t.wireBytes += sent
	if kind == "status" {
		t.polls++
	}
	if kind == "upload_page" {
		t.upBytes += sent
	}
	if err != nil || resp.StatusCode >= 500 {
		t.failed++ // the coordinator retries exactly these
	}
	t.mu.Unlock()
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	// The span ends when the caller has read the body, so a result page's
	// span covers its download.
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp, result: kind == "page"}
	return resp, nil
}

// spanBody counts a response body's bytes and ends the request's span when
// the body is closed.
type spanBody struct {
	io.ReadCloser
	t      *spanTransport
	sp     spanID
	result bool
	n      int64
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.t.tr.end(b.sp)
	b.t.mu.Lock()
	b.t.wireBytes += b.n
	if b.result {
		b.t.resultBytes += b.n
	}
	b.t.mu.Unlock()
	return err
}
