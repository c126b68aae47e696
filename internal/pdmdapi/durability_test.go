package pdmdapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/journal"
	"repro/internal/pdm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// durableScheduler builds a journaled, file-backed scheduler over the
// given directories: one job envelope, so the handler sees a suspended
// job and a queued one after a drain.
func durableScheduler(t *testing.T, dir, jdir string) *repro.Scheduler {
	t.Helper()
	sch, err := repro.NewScheduler(repro.SchedulerConfig{
		Memory:     4000,
		Workers:    2,
		JobMemory:  1024,
		Dir:        dir,
		JournalDir: jdir,
		Pipeline:   repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestDurabilityOverHTTP walks the handler through a daemon restart: a
// drained job reports suspended, the next life's health and status carry
// the recovery provenance, and the Prometheus rendering exposes the
// durability counters.
func TestDurabilityOverHTTP(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()

	// Life 1: a latency-slowed three-pass job plus one queued behind it.
	sch1 := durableScheduler(t, dir, jdir)
	ts1 := httptest.NewServer(New(sch1, Options{MaxBody: 1 << 20}))
	resp, obj := postJSON(t, ts1.URL+"/jobs", map[string]any{
		"workload":       map[string]any{"kind": "perm", "n": 16 * 1024, "seed": 21},
		"alg":            "lmm3",
		"blockLatencyUs": 2000,
		"keepKeys":       true,
		"label":          "durable",
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit = %d: %v", resp.StatusCode, obj)
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	_, obj = postJSON(t, ts1.URL+"/jobs", map[string]any{
		"workload": map[string]any{"kind": "sortedruns", "n": 8 * 1024, "seed": 22},
		"alg":      "exp2",
		"label":    "behind",
	})
	var qid int
	if err := json.Unmarshal(obj["id"], &qid); err != nil {
		t.Fatal(err)
	}

	// Wait for the first pass boundary to reach the journal, then drain:
	// the daemon's SIGTERM path minus the process exit.
	deadline := time.Now().Add(30 * time.Second)
	for {
		recs, _, err := journal.Replay(jdir)
		found := false
		if err == nil {
			for _, rec := range recs {
				var cp pdm.Checkpoint
				if rec.Type == journal.Checkpoint && rec.Job == id &&
					json.Unmarshal(rec.Data, &cp) == nil && cp.Pass >= 1 {
					found = true
				}
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never journaled a checkpoint")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err := sch1.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, ts1.URL, id); st.State != repro.JobSuspended {
		t.Fatalf("after drain: state %q, want suspended", st.State)
	}
	if st := getStatus(t, ts1.URL, qid); st.State != repro.JobQueued {
		t.Fatalf("after drain: queued job state %q", st.State)
	}
	mtext := metricsText(t, ts1.URL)
	if !strings.Contains(mtext, `pdmd_jobs{state="suspended"} 1`) {
		t.Fatalf("life-1 metrics missing suspended gauge:\n%s", mtext)
	}
	ts1.Close()

	// Life 2: same directories.  Both jobs come back — the suspended one
	// resumes mid-flight — and every durability surface reports it.
	sch2 := durableScheduler(t, dir, jdir)
	ts2 := httptest.NewServer(New(sch2, Options{MaxBody: 1 << 20}))
	defer func() {
		ts2.Close()
		sch2.Close()
	}()
	hresp, err := testClient.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health repro.SchedHealth
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !health.Durable || health.Recovered != 2 {
		t.Fatalf("life-2 health = %+v, want durable with 2 recovered", health)
	}

	st := pollUntil(t, ts2.URL, id, repro.JobDone)
	if st.Recovery == nil || !st.Recovery.WasRunning || st.Recovery.ResumedFromPass < 1 {
		t.Fatalf("recovered job status carries no resume provenance: %+v", st.Recovery)
	}
	pollUntil(t, ts2.URL, qid, repro.JobDone)

	// The retained output survives the restart through the keys endpoint.
	kresp, err := testClient.Get(fmt.Sprintf("%s/jobs/%d/keys?limit=1", ts2.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	kresp.Body.Close()
	if kresp.StatusCode != 200 {
		t.Fatalf("GET keys after restart = %d", kresp.StatusCode)
	}

	mtext = metricsText(t, ts2.URL)
	for _, want := range []string{
		"pdmd_jobs_recovered_total 2",
		"pdmd_jobs_resumed_total 1",
		"pdmd_jobs_restarted_total 0",
		"pdmd_journal_fsync_errors_total 0",
	} {
		if !strings.Contains(mtext, want) {
			t.Fatalf("life-2 metrics missing %q in:\n%s", want, mtext)
		}
	}
	for _, prefix := range []string{"pdmd_journal_appends_total ", "pdmd_journal_replayed_records ", "pdmd_journal_bytes "} {
		if !metricPositive(mtext, prefix) {
			t.Fatalf("life-2 metrics: %s not positive in:\n%s", prefix, mtext)
		}
	}
}

// metricsText fetches /metrics as a string.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := testClient.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricPositive reports whether the metric line starting with prefix has
// a value other than 0.
func metricPositive(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return v != "0" && v != ""
		}
	}
	return false
}

// TestDurabilityOverHTTPLargeUpload commits a 1.5Mi-key staged upload on a
// journaled daemon.  The committed job's input used to ride in its journal
// record, which must fit one frame, so the commit was refused ("record too
// large") where an unjournaled daemon accepts it; now the record references
// a page file beside the log.  The daemon drains with the job unfinished,
// and the next life finishes it from that file.
func TestDurabilityOverHTTPLargeUpload(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	life := func() (*repro.Scheduler, *httptest.Server) {
		// One 64Ki-memory job envelope (212,992 keys) fits the budget, two do not.
		sch, err := repro.NewScheduler(repro.SchedulerConfig{Memory: 300000, Workers: 2, JobMemory: 1 << 16,
			Dir: dir, JournalDir: jdir, Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return sch, httptest.NewServer(New(sch, Options{MaxBody: 1 << 20}))
	}
	sch1, ts1 := life()
	defer ts1.Close()
	const n, page = 3 << 19, 1 << 16
	keys := workload.Uniform(n, -1<<40, 1<<40, 6)
	resp := uploadCreateReq(t, ts1.URL, "big")
	resp.Body.Close()
	for seq := 0; seq*page < n; seq++ {
		var body bytes.Buffer
		if err := (wire.Page{N: page, Keys: keys[seq*page:][:page]}).WriteBinary(&body); err != nil {
			t.Fatal(err)
		}
		resp, err := testClient.Post(fmt.Sprintf("%s/uploads/big/pages?seq=%d", ts1.URL, seq), wire.PageContentType, &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d = %d", seq, resp.StatusCode)
		}
	}
	// The slow job ahead holds the one envelope, so the commit queues (or,
	// on a box slow enough for it to finish first, is itself mid-sort) when
	// the drain comes: either way unfinished, with its input on disk.
	if resp, obj := postJSON(t, ts1.URL+"/jobs", map[string]any{
		"workload": map[string]any{"kind": "perm", "n": 1 << 20, "seed": 5},
		"alg":      "lmm3", "blockLatencyUs": 2000, "label": "blocker",
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit = %d: %v", resp.StatusCode, obj)
	}
	cresp, obj := uploadCommitReq(t, ts1.URL, "big", map[string]any{"keepKeys": true})
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("commit of %d staged keys on a journaled daemon = %d: %s", n, cresp.StatusCode, obj["error"])
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sch1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, ts1.URL, id); st.State != repro.JobQueued && st.State != repro.JobSuspended {
		t.Fatalf("committed job after drain: %q, want queued or suspended", st.State)
	}
	if m := metricsText(t, ts1.URL); !metricPositive(m, "pdmd_journal_input_bytes ") {
		t.Fatalf("pdmd_journal_input_bytes not positive with a queued inline job:\n%s", m)
	}

	sch2, ts2 := life()
	defer func() {
		ts2.Close()
		sch2.Close()
	}()
	pollUntil(t, ts2.URL, id, repro.JobDone)
	got, err := sch2.SortedKeys(id)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(keys)
	if !slices.Equal(got, keys) {
		t.Fatal("the recovered upload's output is not slices.Sort of its pages")
	}
}
