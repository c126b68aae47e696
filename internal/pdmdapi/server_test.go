package pdmdapi

import (
	"bytes"
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
)

// testClient is the only HTTP client the handler tests use: a hard
// per-request timeout means a wedged handler fails the test instead of
// hanging the suite, the same hygiene the distributed coordinator applies
// to its worker calls.
var testClient = &http.Client{Timeout: 60 * time.Second}

// testServer mounts the pdmd handler on httptest over a small scheduler.
func testServer(t *testing.T) (*httptest.Server, *repro.Scheduler) {
	t.Helper()
	sch, err := repro.NewScheduler(repro.SchedulerConfig{
		Memory:    12000,
		Workers:   2,
		JobMemory: 1024,
		Pipeline:  repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sch, Options{MaxBody: 1 << 20}))
	t.Cleanup(func() {
		ts.Close()
		sch.Close()
	})
	return ts, sch
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeObject(t, resp)
}

func decodeObject(t *testing.T, resp *http.Response) map[string]json.RawMessage {
	t.Helper()
	defer resp.Body.Close()
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

func getStatus(t *testing.T, base string, id int) repro.JobStatus {
	t.Helper()
	resp, err := testClient.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%d = %d", id, resp.StatusCode)
	}
	var st repro.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollUntil(t *testing.T, base string, id int, want repro.JobState) repro.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State == repro.JobFailed {
			t.Fatalf("job %d failed: %s", id, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %s", id, want)
	return repro.JobStatus{}
}

// TestSubmitPollResult is the end-to-end happy path of the acceptance
// criteria: submit over HTTP, poll to completion, and fetch a report
// whose pass count matches the paper's bound for the chosen algorithm
// (ThreePass2: exactly 3 passes).
func TestSubmitPollResult(t *testing.T) {
	ts, _ := testServer(t)
	resp, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"workload": map[string]any{"kind": "zipf", "n": 16 * 1024, "seed": 7},
		"alg":      "lmm3",
		"keepKeys": true,
		"label":    "e2e",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", resp.StatusCode, obj)
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	st := pollUntil(t, ts.URL, id, repro.JobDone)
	if st.Report == nil {
		t.Fatal("done job has no report")
	}
	if st.Report.Passes > 3+1e-9 {
		t.Fatalf("ThreePass2 took %.3f passes over HTTP, paper bound is 3", st.Report.Passes)
	}
	if st.Report.N != 16*1024 || st.Algorithm != "ThreePass2" {
		t.Fatalf("report mismatch: %+v", st)
	}

	// Fetch the sorted keys, sliced and whole.
	resp2, err := testClient.Get(fmt.Sprintf("%s/jobs/%d/keys", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var keysResp struct {
		N    int     `json:"n"`
		Keys []int64 `json:"keys"`
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&keysResp); err != nil {
		t.Fatal(err)
	}
	if keysResp.N != 16*1024 || !slices.IsSorted(keysResp.Keys) {
		t.Fatalf("keys endpoint returned %d keys, sorted=%v", keysResp.N, slices.IsSorted(keysResp.Keys))
	}
	resp3, err := testClient.Get(fmt.Sprintf("%s/jobs/%d/keys?offset=100&limit=10", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var slice struct {
		Keys []int64 `json:"keys"`
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&slice); err != nil {
		t.Fatal(err)
	}
	if len(slice.Keys) != 10 || !slices.Equal(slice.Keys, keysResp.Keys[100:110]) {
		t.Fatalf("sliced keys = %v", slice.Keys)
	}
}

// TestDropResultOverHTTP: DELETE /jobs/{id}/result drops what a finished
// job keeps — a records job's sorted keys and payloads, a scenario job's
// result — and answers the job's status, which stays; the output
// endpoints then answer 404, and an unknown job is a 404 too.
func TestDropResultOverHTTP(t *testing.T) {
	ts, _ := testServer(t)
	del := func(id int) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := testClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	code := func(path string) int {
		t.Helper()
		resp, err := testClient.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the code matters
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		name    string
		spec    map[string]any
		outputs []string
	}{
		{"records", map[string]any{
			"workload": map[string]any{"kind": "zipf", "n": 4096, "seed": 3, "payload": map[string]any{"minBytes": 1, "maxBytes": 8}},
			"keepKeys": true,
		}, []string{"keys", "records"}},
		{"topk", map[string]any{
			"scenario": "topk", "topK": 16,
			"workload": map[string]any{"kind": "uniform", "n": 4096, "seed": 5},
		}, []string{"result"}},
	} {
		resp, obj := postJSON(t, ts.URL+"/jobs", tc.spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit = %d: %v", tc.name, resp.StatusCode, obj)
		}
		var id int
		if err := json.Unmarshal(obj["id"], &id); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, ts.URL, id, repro.JobDone)
		for _, out := range tc.outputs {
			if c := code(fmt.Sprintf("/jobs/%d/%s", id, out)); c != http.StatusOK {
				t.Fatalf("%s: GET /%s before the drop = %d", tc.name, out, c)
			}
		}
		dresp := del(id)
		var st repro.JobStatus
		if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK || st.ID != id || st.State != repro.JobDone || st.Report == nil {
			t.Fatalf("%s: DELETE /result = %d, %+v; want 200 and the done job's status", tc.name, dresp.StatusCode, st)
		}
		for _, out := range tc.outputs {
			if c := code(fmt.Sprintf("/jobs/%d/%s", id, out)); c != http.StatusNotFound {
				t.Fatalf("%s: GET /%s after the drop = %d, want 404", tc.name, out, c)
			}
		}
		if st := getStatus(t, ts.URL, id); st.State != repro.JobDone || st.Report == nil {
			t.Fatalf("%s: status after the drop: %+v", tc.name, st)
		}
	}
	resp := del(999)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE /result of an unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestCancelOverHTTP submits a latency-slowed job and cancels it through
// the API: the job must abort promptly and report canceled.
func TestCancelOverHTTP(t *testing.T) {
	ts, _ := testServer(t)
	resp, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"workload":       map[string]any{"kind": "perm", "n": 16 * 1024, "seed": 1},
		"alg":            "seven",
		"blockLatencyUs": 500,
		"label":          "slow",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", resp.StatusCode, obj)
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, ts.URL, id, repro.JobRunning)
	canceledAt := time.Now()
	creq, err := testClient.Post(fmt.Sprintf("%s/jobs/%d/cancel", ts.URL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	creq.Body.Close()
	if creq.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", creq.StatusCode)
	}
	st := pollUntil(t, ts.URL, id, repro.JobCanceled)
	if took := time.Since(canceledAt); took > 5*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
	if st.ArenaLeak != 0 {
		t.Fatalf("canceled job leaked %d arena keys", st.ArenaLeak)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Fatalf("canceled job error = %q", st.Error)
	}
}

func TestSubmitRejections(t *testing.T) {
	ts, _ := testServer(t)
	cases := []map[string]any{
		{"alg": "bogus", "keys": []int64{3, 1, 2}},
		{"alg": "lmm3"}, // no input
		{"alg": "lmm3", "keys": []int64{1}, "workload": map[string]any{"kind": "perm", "n": 4}},
		{"alg": "lmm3", "keys": []int64{1}, "universe": 100},
		{"alg": "radix", "keys": []int64{1}, "universe": -5},
		{"alg": "lmm3", "keys": []int64{1}, "memory": 1000},
		{"alg": "lmm3", "keys": []int64{1}, "nonsense": true},
		{"workload": map[string]any{"kind": "wat", "n": 4}},
	}
	for i, body := range cases {
		resp, obj := postJSON(t, ts.URL+"/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d accepted with %d: %v", i, resp.StatusCode, obj)
		}
		if _, ok := obj["error"]; !ok {
			t.Fatalf("case %d: no error field", i)
		}
	}
	// Unknown job ids are 404s.
	for _, path := range []string{"/jobs/99", "/jobs/99/keys"} {
		resp, err := testClient.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	resp, err := testClient.Post(ts.URL+"/jobs/99/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job = %d", resp.StatusCode)
	}
	// An oversized body is rejected with 413, not buffered: a valid
	// 2 MiB submission against the test server's 1 MiB cap.
	var big bytes.Buffer
	big.WriteString(`{"alg":"lmm3","keys":[0`)
	big.WriteString(strings.Repeat(",1", 1<<20))
	big.WriteString("]}")
	bresp, err := testClient.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(big.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", bresp.StatusCode)
	}
	// A Zipf exponent outside s > 1 must not crash the daemon: the
	// generator clamps and the job completes.
	sresp, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"workload": map[string]any{"kind": "zipf", "n": 2048, "seed": 1, "s": 1.0},
		"alg":      "auto",
	})
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("zipf s=1.0 rejected: %v", obj)
	}
	var sid int
	if err := json.Unmarshal(obj["id"], &sid); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, ts.URL, sid, repro.JobDone)
}

// TestPaginationSemantics is the table-driven contract of both output
// endpoints (n = 2048 records): the limit clamps overflow-safely, the
// final empty page at offset == n is a 200 (end of data), and an offset
// beyond n — what a client with a stale total sends — is a 400, never a
// silently rewritten empty page.
func TestPaginationSemantics(t *testing.T) {
	ts, _ := testServer(t)
	const n = 2048
	_, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"workload": map[string]any{
			"kind": "perm", "n": n, "seed": 1,
			"payload": map[string]any{"minBytes": 4, "maxBytes": 12},
		},
		"alg":      "lmm3",
		"keepKeys": true,
	})
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, ts.URL, id, repro.JobDone)
	cases := []struct {
		query    string
		wantCode int
		wantLen  int // page length when wantCode is 200
	}{
		{"", http.StatusOK, n},
		{"offset=100&limit=10", http.StatusOK, 10},
		{"offset=1&limit=9223372036854775807", http.StatusOK, n - 1}, // end would overflow: clamp
		{"offset=2040&limit=999", http.StatusOK, 8},                  // limit past the end: clamp
		{"limit=-5", http.StatusOK, n},                               // negative limit: clamp
		{fmt.Sprintf("offset=%d", n), http.StatusOK, 0},              // exactly the end: empty final page
		{fmt.Sprintf("offset=%d&limit=10", n+1), http.StatusBadRequest, 0},
		{"offset=99999&limit=10", http.StatusBadRequest, 0},
		{"offset=-5", http.StatusBadRequest, 0},
		{"offset=99999999999999999999", http.StatusBadRequest, 0}, // unparsable
		{"limit=banana", http.StatusBadRequest, 0},
	}
	for _, endpoint := range []string{"keys", "records"} {
		for _, tc := range cases {
			url := fmt.Sprintf("%s/jobs/%d/%s?%s", ts.URL, id, endpoint, tc.query)
			resp, err := testClient.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				N        int      `json:"n"`
				Offset   int      `json:"offset"`
				Keys     []int64  `json:"keys"`
				Payloads [][]byte `json:"payloads"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s?%s: %v", endpoint, tc.query, err)
			}
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("%s?%s = %d, want %d", endpoint, tc.query, resp.StatusCode, tc.wantCode)
			}
			if tc.wantCode != http.StatusOK {
				continue
			}
			if out.N != n || len(out.Keys) != tc.wantLen {
				t.Fatalf("%s?%s: n=%d, page=%d keys, want %d of %d", endpoint, tc.query, out.N, len(out.Keys), tc.wantLen, n)
			}
			if endpoint == "records" && len(out.Payloads) != tc.wantLen {
				t.Fatalf("records?%s: %d payloads for %d keys", tc.query, len(out.Payloads), tc.wantLen)
			}
		}
	}
}

// TestRecordsJobEndToEnd submits inline keys with byte payloads, polls to
// completion, and checks the paginated records endpoint returns the
// records sorted by key with their payloads still attached.
func TestRecordsJobEndToEnd(t *testing.T) {
	ts, _ := testServer(t)
	n := 500
	keys := make([]int64, n)
	payloads := make([][]byte, n)
	for i := range keys {
		keys[i] = int64((i * 7919) % 101) // duplicates exercise stability
		payloads[i] = []byte(fmt.Sprintf("k%03d-r%04d", keys[i], i))
	}
	resp, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"keys":     keys,
		"payloads": payloads,
		"alg":      "lmm3",
		"keepKeys": true,
		"label":    "records-e2e",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", resp.StatusCode, obj)
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	st := pollUntil(t, ts.URL, id, repro.JobDone)
	if st.Report == nil || st.Report.PermutePasses <= 0 || st.Report.PayloadWords == 0 {
		t.Fatalf("records job report missing permutation accounting: %+v", st.Report)
	}
	// Page through the whole output and verify sortedness + pairing.
	var gotKeys []int64
	var gotPayloads [][]byte
	for off := 0; ; {
		resp, err := testClient.Get(fmt.Sprintf("%s/jobs/%d/records?offset=%d&limit=128", ts.URL, id, off))
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			N        int      `json:"n"`
			Keys     []int64  `json:"keys"`
			Payloads [][]byte `json:"payloads"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("records page at %d: code %d, err %v", off, resp.StatusCode, err)
		}
		if len(page.Keys) == 0 {
			break
		}
		gotKeys = append(gotKeys, page.Keys...)
		gotPayloads = append(gotPayloads, page.Payloads...)
		off += len(page.Keys)
	}
	if len(gotKeys) != n || !slices.IsSorted(gotKeys) {
		t.Fatalf("paged %d keys, sorted=%v", len(gotKeys), slices.IsSorted(gotKeys))
	}
	for i := range gotKeys {
		var k, r int
		if _, err := fmt.Sscanf(string(gotPayloads[i]), "k%03d-r%04d", &k, &r); err != nil {
			t.Fatalf("payload %d corrupt: %q", i, gotPayloads[i])
		}
		if int64(k) != gotKeys[i] {
			t.Fatalf("record %d: payload %q rode with key %d", i, gotPayloads[i], gotKeys[i])
		}
	}
	// The radix path must reject payloads: a records sort is comparison-based.
	resp2, _ := postJSON(t, ts.URL+"/jobs", map[string]any{
		"keys": []int64{1, 2}, "payloads": [][]byte{{1}, {2}}, "alg": "radix",
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("radix records job = %d, want 400", resp2.StatusCode)
	}
}

// TestStatsAndMetrics drives a couple of jobs and checks both telemetry
// surfaces: the JSON stats and the Prometheus text rendering.
func TestStatsAndMetrics(t *testing.T) {
	ts, _ := testServer(t)
	ids := make([]int, 0, 3)
	for seed := 0; seed < 3; seed++ {
		resp, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
			"workload": map[string]any{"kind": "sortedruns", "n": 8 * 1024, "seed": seed},
			"alg":      "auto",
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %v", resp.StatusCode, obj)
		}
		var id int
		if err := json.Unmarshal(obj["id"], &id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		pollUntil(t, ts.URL, id, repro.JobDone)
	}

	resp, err := testClient.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats repro.SchedStats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 3 || stats.KeysSorted != 3*8*1024 || stats.PassesWeighted <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.MemInUse != 0 {
		t.Fatalf("memory not drained: %+v", stats)
	}

	mresp, err := testClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`pdmd_jobs_total{state="completed"} 3`,
		"pdmd_keys_sorted_total 24576",
		`pdmd_mem_keys{kind="in_use"} 0`,
		"pdmd_passes_weighted_avg",
		"pdmd_worker_utilization",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}

	// The job list includes all three, in submission order.
	lresp, err := testClient.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []repro.JobStatus
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].ID > list[1].ID {
		t.Fatalf("job list = %+v", list)
	}
}

// TestPlanEndpoint: GET /plan dry-runs the cost model — ranked candidate
// table, chosen algorithm, calibration — without creating a job, and
// rejects malformed specs; a completed job's status carries the planned
// prediction next to the measured wall.
func TestPlanEndpoint(t *testing.T) {
	ts, _ := testServer(t)

	plan := func(body any) (*http.Response, *repro.PlanReport) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := testClient.Post(ts.URL+"/plan", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp, nil
		}
		var rep repro.PlanReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp, &rep
	}

	// A workload spec that fits in one memory load must plan the one-pass
	// sort, with the ranked table exposing every candidate.
	resp, rep := plan(map[string]any{"workload": map[string]any{"kind": "perm", "n": 800}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan = %d", resp.StatusCode)
	}
	if rep.Chosen != "one" {
		t.Fatalf("chosen = %q, want one", rep.Chosen)
	}
	if len(rep.Candidates) < 5 || !rep.Candidates[0].Feasible || rep.Candidates[0].Algorithm != "one" {
		t.Fatalf("candidate table = %+v", rep.Candidates)
	}
	// Nothing was admitted.
	listResp, err := testClient.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var jobs []repro.JobStatus
	if err := json.NewDecoder(listResp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("plan created %d jobs", len(jobs))
	}

	// A universe spec routes to radix.
	if _, rep := plan(map[string]any{
		"workload": map[string]any{"kind": "uniform", "n": 5000},
		"alg":      "radix", "universe": 1 << 20,
	}); rep == nil || rep.Chosen != "radix" {
		t.Fatalf("radix plan = %+v", rep)
	}

	// Malformed specs are 400s.
	if resp, _ := plan(map[string]any{"workload": map[string]any{"kind": "nope", "n": 10}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind = %d", resp.StatusCode)
	}
	if resp, _ := plan(map[string]any{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec = %d", resp.StatusCode)
	}

	// A real job's status records the planned prediction and, once done,
	// the measured wall and drift.
	resp2, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"workload": map[string]any{"kind": "perm", "n": 4096, "seed": 3},
	})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp2.StatusCode)
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	st := pollUntil(t, ts.URL, id, repro.JobDone)
	if st.Planned == nil || st.Planned.Algorithm == "" || st.Planned.PredictedSeconds <= 0 {
		t.Fatalf("done job missing plan: %+v", st.Planned)
	}
	if st.MeasuredSeconds <= 0 {
		t.Fatalf("done job missing measured wall: %+v", st)
	}
}

// TestPprofOptIn checks that the profiling handlers exist only when the
// -pprof flag turned them on: same scheduler, two handlers.
func TestPprofOptIn(t *testing.T) {
	ts, _ := testServer(t) // pprof off
	resp, err := testClient.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/cmdline = %d, want 404", resp.StatusCode)
	}

	sch, err := repro.NewScheduler(repro.SchedulerConfig{
		Memory: 12000, Workers: 2, JobMemory: 1024,
		Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	on := httptest.NewServer(New(sch, Options{MaxBody: 1 << 20, Pprof: true}))
	defer func() {
		on.Close()
		sch.Close()
	}()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := testClient.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof on: GET %s = %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("pprof on: GET %s returned empty body", path)
		}
	}
}

// TestSubmitPipeline checks that a submit body's "pipeline" object reaches
// the job under its lowerCamel keys: the staging it asks for is charged to
// the job's memory envelope, and a negative depth fails the job.
func TestSubmitPipeline(t *testing.T) {
	ts, _ := testServer(t) // scheduler default: 2 prefetch + 2 write-behind stripes
	reserved := func(pipeline any) int {
		t.Helper()
		body := map[string]any{"workload": map[string]any{"kind": "perm", "n": 4096, "seed": 9}}
		if pipeline != nil {
			body["pipeline"] = pipeline
		}
		resp, obj := postJSON(t, ts.URL+"/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit pipeline=%v = %d: %s", pipeline, resp.StatusCode, obj["error"])
		}
		var st repro.JobStatus
		if err := json.Unmarshal(obj["id"], &st.ID); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(obj["memReserved"], &st.MemReserved); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, ts.URL, st.ID, repro.JobDone)
		return st.MemReserved
	}
	def := reserved(nil)
	if sync := reserved(map[string]int{"prefetch": 0, "writeBehind": 0}); sync >= def {
		t.Fatalf("synchronous job reserved %d keys, default-depth job %d: the override did not arrive", sync, def)
	}
	if same := reserved(map[string]int{"prefetch": 3, "writeBehind": 1}); same != def {
		t.Fatalf("3+1 stripes reserved %d keys, the default 2+2 reserved %d", same, def)
	}
	// A negative depth never builds a machine: pdm's own config check fails
	// the job, exactly as it does for a library caller's JobSpec.Pipeline.
	resp, obj := postJSON(t, ts.URL+"/jobs", map[string]any{
		"workload": map[string]any{"kind": "perm", "n": 1024},
		"pipeline": map[string]int{"prefetch": -1},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("negative prefetch = %d: %s", resp.StatusCode, obj["error"])
	}
	var id int
	if err := json.Unmarshal(obj["id"], &id); err != nil {
		t.Fatal(err)
	}
	if st := pollUntil(t, ts.URL, id, repro.JobFailed); !strings.Contains(st.Error, "pipeline depths") {
		t.Fatalf("negative prefetch failed with %q, want pdm's pipeline-depth check", st.Error)
	}
}
