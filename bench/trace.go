package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdm"
)

// The bench measures every layer from outside: spans are opened and closed
// here, around calls into the program's public functions and inside
// bench-owned wrappers (spanDisk, the HTTP middleware, the RoundTripper).
// Nothing outside bench/ records a span.

// spanID indexes tracer.spans; noSpan is the parent of a root span.
type spanID int

const noSpan spanID = -1

// warmupOp is the op id set-up's warm-up ops run under; their spans are
// recorded (they show in the Chrome dump) but never counted.
const warmupOp = 0

// span is one timed interval.  Spans of one op share its id; parent links
// them into the tree self time is computed over.
type span struct {
	op         int
	name       string // "<layer>.<what>", e.g. "core.pass2"
	parent     spanID
	start, end time.Duration // since tracer.t0
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is the
// "tracing off" state: every method is a no-op on it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(op int, parent spanID, name string) spanID {
	if tr == nil {
		return noSpan
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{op: op, name: name, parent: parent, start: now, end: -1})
	return spanID(len(tr.spans) - 1)
}

func (tr *tracer) end(id spanID) {
	if tr == nil || id == noSpan {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id].end = now
	tr.mu.Unlock()
}

// opOf is the op a span belongs to.
func (tr *tracer) opOf(id spanID) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id < 0 || int(id) >= len(tr.spans) {
		return warmupOp
	}
	return tr.spans[id].op
}

// add records a span whose endpoints were observed elsewhere (JobStatus
// timestamps), as wall-clock times.
func (tr *tracer) add(op int, parent spanID, name string, start, end time.Time) {
	if tr == nil || start.IsZero() || end.Before(start) {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{op: op, name: name, parent: parent, start: start.Sub(tr.t0), end: end.Sub(tr.t0)})
}

// opTrace is the finished spans of one op, reduced to what the metrics
// need.
type opTrace struct {
	root     string                   // the root span's name
	wall     time.Duration            // the root span's duration
	byName   map[string]time.Duration // summed duration per span name
	selfBy   map[string]time.Duration // summed self time per layer, root excluded
	rootSelf time.Duration
}

// covered is the length of the union of the given intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi time.Duration
	hi = -1 << 62
	for _, x := range iv {
		lo := x[0]
		if lo < hi {
			lo = hi
		}
		if x[1] > lo {
			total += x[1] - lo
			hi = x[1]
		}
	}
	return total
}

// byOp groups the finished spans by op.  A span's self time is its
// duration minus the part of it its children cover (children may overlap:
// concurrent worker requests under one dist.sort).
func (tr *tracer) byOp() map[int]*opTrace {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	children := make(map[spanID][][2]time.Duration)
	for _, s := range spans {
		if s.end >= 0 && s.parent != noSpan {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make(map[int]*opTrace)
	for id, s := range spans {
		if s.end < 0 || s.op == warmupOp {
			continue
		}
		ot := out[s.op]
		if ot == nil {
			ot = &opTrace{byName: map[string]time.Duration{}, selfBy: map[string]time.Duration{}}
			out[s.op] = ot
		}
		dur := s.end - s.start
		self := dur - covered(children[spanID(id)])
		ot.byName[s.name] += dur
		if s.parent == noSpan {
			ot.root, ot.wall, ot.rootSelf = s.name, dur, self
		} else {
			ot.selfBy[s.layer()] += self
		}
	}
	return out
}

// writeChrome dumps the spans in Chrome trace-event format: one track
// (tid) per layer, the op id in args, so a run opens in Perfetto.
func (tr *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	tids := map[string]int{}
	var events []event
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		layer := s.layer()
		tid, ok := tids[layer]
		if !ok {
			tid = len(tids) + 1
			tids[layer] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": layer}})
		}
		events = append(events, event{
			Name: s.name, Cat: layer, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// diskMeter counts the calls a traced array makes into its disks and the
// time they take.  One span per 2 KiB block would be ~130k spans per sort,
// so the disk layer keeps counters instead.
type diskMeter struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds inside disk calls, summed over disks
}

func (m *diskMeter) timed(f func() error) error {
	t0 := time.Now()
	err := f()
	m.busy.Add(int64(time.Since(t0)))
	m.calls.Add(1)
	return err
}

// spanDisk wraps one pdm.Disk.  It embeds the interface so a Disk method
// added later is delegated, not broken.
type spanDisk struct {
	pdm.Disk
	m *diskMeter
}

func (d spanDisk) ReadBlock(off int, dst []int64) error {
	return d.m.timed(func() error { return d.Disk.ReadBlock(off, dst) })
}

func (d spanDisk) WriteBlock(off int, src []int64) error {
	return d.m.timed(func() error { return d.Disk.WriteBlock(off, src) })
}

// spanZeroDisk is spanDisk for a zero-copy backend: it keeps the
// ZeroCopyDisk capability so the mmap path stays zero-copy under tracing.
type spanZeroDisk struct {
	pdm.ZeroCopyDisk
	m *diskMeter
}

func (d spanZeroDisk) ReadBlock(off int, dst []int64) error {
	return d.m.timed(func() error { return d.ZeroCopyDisk.ReadBlock(off, dst) })
}

func (d spanZeroDisk) WriteBlock(off int, src []int64) error {
	return d.m.timed(func() error { return d.ZeroCopyDisk.WriteBlock(off, src) })
}

func (d spanZeroDisk) ReadBlockZero(off int) (v []int64, err error) {
	err = d.m.timed(func() error { v, err = d.ZeroCopyDisk.ReadBlockZero(off); return err })
	return v, err
}

func (d spanZeroDisk) WriteBlockZero(off int) (v []int64, err error) {
	err = d.m.timed(func() error { v, err = d.ZeroCopyDisk.WriteBlockZero(off); return err })
	return v, err
}

// meterDisks wraps every disk of a fresh array in the matching span disk.
func meterDisks(disks []pdm.Disk, m *diskMeter) []pdm.Disk {
	out := make([]pdm.Disk, len(disks))
	for i, d := range disks {
		if z, ok := d.(pdm.ZeroCopyDisk); ok && z.ZeroCopy() {
			out[i] = spanZeroDisk{ZeroCopyDisk: z, m: m}
		} else {
			out[i] = spanDisk{Disk: d, m: m}
		}
	}
	return out
}

// spanHeader carries a client request span's id to the server middleware,
// so the server-side span hangs under the request (and op) that caused it.
const spanHeader = "X-Bench-Span"

// traceHandler is the bench-owned middleware around the pdmdapi handler:
// one "pdmdapi.server" span per request, plus an error count.
func traceHandler(tr *tracer, errs *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, op := noSpan, warmupOp
		if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent, op = spanID(v), tr.opOf(spanID(v))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sp := tr.begin(op, parent, "pdmdapi.server")
		next.ServeHTTP(sw, r)
		tr.end(sp)
		if sw.code >= 400 {
			errs.Add(1)
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
