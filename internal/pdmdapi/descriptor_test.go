package pdmdapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/wire/wiretest"
)

// TestValidationSameByBothDoors pushes each bad descriptor through the
// library door (Scheduler.Submit) and the HTTP door (POST /jobs) and
// requires the same rejection from both: there is one Validate, so a spec
// one door refuses the other must refuse with the same words.
func TestValidationSameByBothDoors(t *testing.T) {
	ts, sch := testServer(t)
	w := &repro.WorkloadSpec{Kind: "uniform", N: 4096, Seed: 1}
	sorted := &repro.WorkloadSpec{Kind: "sorted", N: 4096}
	bad := []struct {
		name string
		spec repro.JobSpec
	}{
		{"empty job", repro.JobSpec{Alg: repro.ThreePassLMM}},
		{"keys and workload", repro.JobSpec{Keys: []int64{1}, Workload: w}},
		{"unknown workload kind", repro.JobSpec{Workload: &repro.WorkloadSpec{Kind: "wat", N: 4}}},
		{"payload count mismatch", repro.JobSpec{Keys: []int64{1, 2}, Payloads: [][]byte{{1}}}},
		{"payloads with workload", repro.JobSpec{Workload: w, Payloads: [][]byte{{1}}}},
		{"payload bounds", repro.JobSpec{Workload: &repro.WorkloadSpec{Kind: "perm", N: 8,
			Payload: &repro.PayloadSpec{MinBytes: 9, MaxBytes: 4}}}},
		{"universe without radix", repro.JobSpec{Keys: []int64{1}, Alg: repro.ThreePassLMM, Universe: 100}},
		{"universe on auto", repro.JobSpec{Keys: []int64{1}, Universe: 100}},
		{"negative universe", repro.JobSpec{Keys: []int64{1}, Alg: "radix", Universe: -5}},
		{"radix with payloads", repro.JobSpec{Keys: []int64{1}, Payloads: [][]byte{{1}}, Alg: "radix"}},
		{"memory not a square", repro.JobSpec{Keys: []int64{1}, Memory: 1000}},
		{"unknown backend", repro.JobSpec{Keys: []int64{1}, Backend: "ram"}},
		{"file backend on an in-memory scheduler", repro.JobSpec{Keys: []int64{1}, Backend: repro.BackendMmap}},
		{"input beyond a forced algorithm", repro.JobSpec{Workload: w, Alg: repro.MemOnePass}},

		{"scenario with forced alg", repro.JobSpec{Scenario: "topk", TopK: 1, Workload: w, Alg: repro.ThreePassLMM}},
		{"scenario with forced one-pass beyond M", repro.JobSpec{Scenario: "quantile", Rank: 7, Workload: w, Alg: repro.MemOnePass}},
		{"scenario with radix", repro.JobSpec{Scenario: "topk", TopK: 1, Workload: w, Alg: "radix"}},
		{"scenario with universe", repro.JobSpec{Scenario: "topk", TopK: 1, Workload: w, Universe: 1 << 20}},
		{"scenario with payloads", repro.JobSpec{Scenario: "topk", TopK: 1, Keys: []int64{1}, Payloads: [][]byte{{1}}}},
		{"unknown scenario", repro.JobSpec{Scenario: "median", Workload: w}},
		{"ingestBatch without scenario", repro.JobSpec{Workload: w, IngestBatch: []int64{1}}},
		{"groupPayloads without scenario", repro.JobSpec{Keys: []int64{1, 2}, GroupPayloads: []int64{1, 2}}},
		{"ingestBatch on topk", repro.JobSpec{Scenario: "topk", TopK: 1, Workload: w, IngestBatch: []int64{1}}},
		{"groupPayloads on topk", repro.JobSpec{Scenario: "topk", TopK: 1, Keys: []int64{1, 2}, GroupPayloads: []int64{1, 2}}},
		{"topk k=0", repro.JobSpec{Scenario: "topk", Workload: w}},
		{"topk k>n", repro.JobSpec{Scenario: "topk", TopK: 5000, Workload: w}},
		{"rank out of range", repro.JobSpec{Scenario: "quantile", Rank: 4097, Workload: w}},
		{"groupPayloads with workload", repro.JobSpec{Scenario: "groupby", Workload: w, GroupPayloads: make([]int64, 4096)}},
		{"groupPayloads length mismatch", repro.JobSpec{Scenario: "groupby", Keys: []int64{1, 2}, GroupPayloads: []int64{1}}},
		{"ingest unsorted workload", repro.JobSpec{Scenario: "ingest", Workload: w, IngestBatch: []int64{1}}},
		{"ingest without batch", repro.JobSpec{Scenario: "ingest", Workload: sorted}},
	}
	for _, tc := range bad {
		_, libErr := sch.Submit(tc.spec)
		if libErr == nil {
			t.Errorf("%s: Scheduler.Submit accepted", tc.name)
			continue
		}
		resp, obj := postJSON(t, ts.URL+"/jobs", tc.spec)
		var httpErr string
		json.Unmarshal(obj["error"], &httpErr) //nolint:errcheck // a missing error fails the comparison below
		if resp.StatusCode != http.StatusBadRequest || httpErr != libErr.Error() {
			t.Errorf("%s: Submit said %q, POST /jobs answered %d %q", tc.name, libErr, resp.StatusCode, httpErr)
		}
	}
	// The retired "kernel" selector is not a descriptor field any more, so
	// every door that decodes a descriptor answers it exactly as it answers
	// any other key it does not know (a library caller cannot even spell it).
	for _, path := range []string{"/jobs", "/plan", "/uploads/u/commit"} {
		answer := func(key string) string {
			resp, err := testClient.Post(ts.URL+path, "application/json",
				strings.NewReader(`{"alg":"lmm3","`+key+`":"radix"}`))
			if err != nil {
				t.Fatal(err)
			}
			var httpErr string
			json.Unmarshal(decodeObject(t, resp)["error"], &httpErr) //nolint:errcheck // a missing error fails the comparison below
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(httpErr, `unknown field "`+key+`"`) {
				t.Errorf("POST %s with %q answered %d %q, want 400 naming the unknown field", path, key, resp.StatusCode, httpErr)
			}
			return strings.ReplaceAll(httpErr, key, "<key>")
		}
		if kernel, other := answer("kernel"), answer("colour"); kernel != other {
			t.Errorf("POST %s: \"kernel\" answered %q, any unknown field %q", path, kernel, other)
		}
	}
	if n := len(sch.Jobs()); n != 0 {
		t.Fatalf("%d rejected specs became jobs", n)
	}
}

// TestAlgSpellingSameByBothDoors covers the alg field itself: a Go caller's
// Alg: "auto" is the wire's "auto" (planned, and legal on a scenario job),
// and a name outside the table is refused by both doors with the table's
// own list of names (HTTP refuses it while decoding, hence its prefix).
func TestAlgSpellingSameByBothDoors(t *testing.T) {
	ts, sch := testServer(t)
	w := &repro.WorkloadSpec{Kind: "uniform", N: 4096, Seed: 1}
	for _, spec := range []repro.JobSpec{
		{Workload: w, Alg: "auto"},
		{Scenario: "topk", TopK: 3, Workload: w, Alg: "auto"},
	} {
		plain := spec
		plain.Alg = repro.Auto
		want, err := sch.Explain(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sch.Explain(spec)
		if err != nil || got.Chosen != want.Chosen {
			t.Errorf("scenario %q: Explain with Alg \"auto\" = %v, %v; want the planner's %v", spec.Scenario, got, err, want.Chosen)
		}
		if _, err := sch.Submit(spec); err != nil {
			t.Errorf("scenario %q: Scheduler.Submit refused Alg \"auto\": %v", spec.Scenario, err)
		}
		if resp, obj := postJSON(t, ts.URL+"/jobs", spec); resp.StatusCode != http.StatusAccepted {
			t.Errorf("scenario %q: POST /jobs refused alg \"auto\": %d %s", spec.Scenario, resp.StatusCode, obj["error"])
		}
	}

	bogus := repro.JobSpec{Workload: w, Alg: "bogus"}
	words := `unknown algorithm "bogus" (want ` + core.AlgNames() + ")"
	if _, err := sch.Submit(bogus); err == nil || err.Error() != "repro: "+words {
		t.Errorf("Scheduler.Submit said %v, want %q", err, "repro: "+words)
	}
	resp, obj := postJSON(t, ts.URL+"/jobs", bogus)
	var httpErr string
	json.Unmarshal(obj["error"], &httpErr) //nolint:errcheck // a missing error fails the comparison below
	if resp.StatusCode != http.StatusBadRequest || !strings.HasSuffix(httpErr, words) {
		t.Errorf("POST /jobs answered %d %q, want 400 ending in %q", resp.StatusCode, httpErr, words)
	}
}

// TestSubmitBodyReachesSchedulerIntact is the HTTP leg of the descriptor
// round trip: a body with every field set decodes into exactly the value
// the submit, plan, and commit handlers hand the scheduler — no field is
// dropped or renamed on the way in.
func TestSubmitBodyReachesSchedulerIntact(t *testing.T) {
	full := wiretest.FullJobSpec()
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{opts: Options{MaxBody: 1 << 20}}
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	got, ok := srv.decodeSpec(rec, req)
	if !ok {
		t.Fatalf("decode failed: %d %s", rec.Code, rec.Body)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("POST /jobs body lost fields:\n got %+v\nwant %+v", got, full)
	}
}
