package pdmdapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
	"repro/internal/wordview"
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

// postPage uploads one page in the named body encoding and returns the
// status and the answer's error text ("" on success).
func postPage(t *testing.T, codec, base, id string, seq int, pg wire.Page) (int, string) {
	t.Helper()
	var body bytes.Buffer
	ctype := "application/json"
	pg.N = len(pg.Keys) // a well-formed header: the window lies inside n
	if codec == "binary" {
		ctype = wire.PageContentType
		if err := pg.WriteBinary(&body); err != nil {
			t.Fatal(err)
		}
	} else if err := json.NewEncoder(&body).Encode(uploadPageBody{pg.Keys, pg.Payloads}); err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(fmt.Sprintf("%s/uploads/%s/pages?seq=%d", base, id, seq), ctype, &body)
	if err != nil {
		t.Fatal(err)
	}
	var msg string
	json.Unmarshal(decodeObject(t, resp)["error"], &msg) //nolint:errcheck // no error key: success
	return resp.StatusCode, msg
}

// uploadPageBody is the documented JSON upload body: keys and payloads.
type uploadPageBody struct {
	Keys     []int64  `json:"keys"`
	Payloads [][]byte `json:"payloads,omitempty"`
}

// TestUploadPageSameByBothCodecs walks one script of good and bad pages
// through POST /uploads/{id}/pages twice — JSON bodies, then binary bodies,
// each against a fresh worker — and requires the same status and the same
// error text at every step: one Page, two codecs, one validation path.
func TestUploadPageSameByBothCodecs(t *testing.T) {
	type answer struct {
		step string
		code int
		msg  string
	}
	script := func(codec string) []answer {
		sch, err := repro.NewScheduler(repro.SchedulerConfig{
			Memory: 12000, Workers: 1, JobMemory: 1024,
			Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(sch, Options{MaxBody: 1 << 16, MaxStagedBytes: 2000}))
		defer func() {
			ts.Close()
			sch.Close()
		}()
		var got []answer
		page := func(step, id string, seq int, pg wire.Page) {
			code, msg := postPage(t, codec, ts.URL, id, seq, pg)
			got = append(got, answer{step, code, msg})
		}
		commit := func(step, id string) {
			resp, obj := uploadCommitReq(t, ts.URL, id, map[string]any{"alg": "lmm3", "keepKeys": true})
			var msg string
			json.Unmarshal(obj["error"], &msg) //nolint:errcheck // no error key: success
			got = append(got, answer{step, resp.StatusCode, msg})
		}
		for _, id := range []string{"a", "mixed", "full"} {
			resp := uploadCreateReq(t, ts.URL, id)
			resp.Body.Close()
		}
		page("unknown upload", "ghost", 0, wire.Page{Keys: []int64{1}})
		page("empty page", "a", 0, wire.Page{Keys: []int64{}})
		page("payload-count mismatch", "a", 0, wire.Page{Keys: []int64{1, 2}, Payloads: [][]byte{{1}}})
		page("too many payloads", "a", 0, wire.Page{Keys: []int64{1}, Payloads: [][]byte{{1}, {2}}})
		page("oversize body", "a", 0, wire.Page{Keys: slices.Repeat([]int64{1 << 62}, 1<<14)}) // past MaxBody in either encoding
		page("first page", "a", 0, wire.Page{Keys: []int64{3, 1, 2}})
		page("duplicate seq", "a", 0, wire.Page{Keys: []int64{9, 9, 9, 9}}) // idempotent: the first copy won
		page("records page 0", "mixed", 0, wire.Page{Keys: []int64{1}, Payloads: [][]byte{[]byte("p")}})
		page("keys-only page 1", "mixed", 1, wire.Page{Keys: []int64{2}})
		commit("mixed commit", "mixed")
		page("under the cap", "full", 0, wire.Page{Keys: make([]int64, 200)})
		page("staging full", "full", 1, wire.Page{Keys: make([]int64, 50)})
		commit("commit", "a")
		page("committed upload", "a", 1, wire.Page{Keys: []int64{4}})
		return got
	}
	viaJSON, viaBinary := script("json"), script("binary")
	for i, want := range viaJSON {
		if got := viaBinary[i]; got != want {
			t.Errorf("%s: JSON body answered %d %q, binary body %d %q", want.step, want.code, want.msg, got.code, got.msg)
		}
	}
	// … and the script met every answer it was written to provoke.
	wantCodes := []int{404, 400, 400, 400, 413, 200, 200, 200, 200, 400, 200, 507, 202, 409}
	for i, a := range viaBinary {
		if a.code != wantCodes[i] {
			t.Errorf("%s: status %d %q, want %d", a.step, a.code, a.msg, wantCodes[i])
		}
	}
}

// TestPageDownloadNegotiation: /keys and /records answer JSON unless the
// request's Accept lists the binary body; both bodies carry the same page;
// /healthz offers the binary body for uploads.
func TestPageDownloadNegotiation(t *testing.T) {
	ts, _ := testServer(t)
	resp, obj := postJSON(t, ts.URL+"/jobs", repro.JobSpec{
		Keys: []int64{5, 3, 9, 3, 1}, Payloads: [][]byte{[]byte("e"), []byte("c1"), {}, []byte("c2"), []byte("a")},
		Alg: "lmm3", KeepKeys: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, obj["error"])
	}
	var id int
	json.Unmarshal(obj["id"], &id) //nolint:errcheck // a zero id fails the poll
	pollUntil(t, ts.URL, id, repro.JobDone)

	get := func(path, accept string) (string, wire.Page) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := testClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		var pg wire.Page
		ctype := resp.Header.Get("Content-Type")
		if ctype == wire.PageContentType {
			pg, err = wire.ReadPage(resp.Body, resp.ContentLength, nil)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&pg)
		}
		if err != nil {
			t.Fatalf("GET %s (%s): %v", path, ctype, err)
		}
		return ctype, pg
	}
	for _, path := range []string{
		fmt.Sprintf("/jobs/%d/keys?offset=1&limit=3", id),
		fmt.Sprintf("/jobs/%d/records?offset=1&limit=3", id),
		fmt.Sprintf("/jobs/%d/records?offset=5", id), // the empty final page
	} {
		ct, def := get(path, "")
		if ct != "application/json" {
			t.Errorf("GET %s with no Accept answered %q, want JSON", path, ct)
		}
		if ct, _ := get(path, "application/json"); ct != "application/json" {
			t.Errorf("GET %s accepting JSON answered %q", path, ct)
		}
		ct, bin := get(path, wire.PageContentType+", application/json;q=0.5")
		if ct != wire.PageContentType {
			t.Errorf("GET %s accepting the binary body answered %q", path, ct)
		}
		if bin.N != def.N || bin.Offset != def.Offset || !reflect.DeepEqual(bin.Keys, def.Keys) || len(bin.Payloads) != len(def.Payloads) {
			t.Errorf("GET %s: JSON page %+v, binary page %+v", path, def, bin)
		}
		for i := range def.Payloads {
			if !bytes.Equal(bin.Payloads[i], def.Payloads[i]) {
				t.Errorf("GET %s: payload %d is %q in JSON, %q in binary", path, i, def.Payloads[i], bin.Payloads[i])
			}
		}
	}
	// A bad offset is a JSON 400 whatever was asked for.
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/jobs/%d/keys?offset=6", ts.URL, id), nil)
	req.Header.Set("Accept", wire.PageContentType)
	if resp, err := testClient.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("offset past n with a binary Accept: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	hresp, err := testClient.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if got := hresp.Header.Get("Accept-Post"); got != wire.PageContentType {
		t.Errorf("/healthz Accept-Post = %q, want %q", got, wire.PageContentType)
	}
}

// TestBinaryUploadNeedsLength: the binary body does not travel chunked —
// its decoder sizes everything from the declared length — so an upload
// without a Content-Length is a 400 that says so, and stages nothing.
func TestBinaryUploadNeedsLength(t *testing.T) {
	ts, _ := testServer(t)
	resp := uploadCreateReq(t, ts.URL, "chunked")
	resp.Body.Close()
	var body bytes.Buffer
	if err := (wire.Page{N: 2, Keys: []int64{2, 1}}).WriteBinary(&body); err != nil {
		t.Fatal(err)
	}
	// A reader net/http cannot size is sent with Transfer-Encoding: chunked.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/uploads/chunked/pages?seq=0", struct{ io.Reader }{&body})
	req.Header.Set("Content-Type", wire.PageContentType)
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var msg string
	json.Unmarshal(decodeObject(t, resp)["error"], &msg) //nolint:errcheck // a missing error fails below
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "declared length -1") {
		t.Fatalf("chunked binary upload answered %d %q", resp.StatusCode, msg)
	}
	if cresp, _ := uploadCommitReq(t, ts.URL, "chunked", map[string]any{"alg": "lmm3"}); cresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("commit after the refused page = %d, want 400 (no pages)", cresp.StatusCode)
	}
}

// TestDecodedBodyOutlivesItsBuffer decodes two submit bodies of one length
// through one server: the second is read into the staging buffer the first
// gave back, and the first decoded spec — its keys and its label — is
// unchanged by it.
func TestDecodedBodyOutlivesItsBuffer(t *testing.T) {
	srv := &server{opts: Options{MaxBody: 1 << 20}, ups: newUploadStore(1<<20, uploadTTL)}
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(i*7919%4096) - 2048
	}
	decode := func(spec repro.JobSpec) ([]byte, repro.JobSpec) {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		got, ok := srv.decodeSpec(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if !ok {
			t.Fatalf("decode failed: %d %s", rec.Code, rec.Body)
		}
		return body, got
	}
	first := repro.JobSpec{Keys: slices.Clone(keys), Alg: repro.ThreePassLMM, KeepKeys: true, Label: "first"}
	_, got := decode(first)
	slices.Reverse(keys) // the same digits: a body of the same length
	body, _ := decode(repro.JobSpec{Keys: keys, Alg: repro.ThreePassLMM, KeepKeys: true, Label: "other"})
	buf := srv.ups.takeKeys((len(body) + 7) / 8)
	if buf == nil || !bytes.HasPrefix(wordview.Bytes(buf), body) {
		t.Fatal("the second body was not read into the buffer the first gave back")
	}
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("reading the next body changed a decoded spec:\n got %+v\nwant %+v", got, first)
	}
}
