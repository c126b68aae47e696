package pdmdapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro"
)

// referenceDecodeSpec is the submit decode the door replaced, kept as its
// oracle: encoding/json streaming the capped body, unknown fields refused.
func referenceDecodeSpec(s *server, w http.ResponseWriter, r *http.Request) (repro.JobSpec, bool) {
	var spec repro.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	dec.DisallowUnknownFields()
	return spec, bodyOK(w, dec.Decode(&spec))
}

// TestDecodeSpecSameAsReference: for each edge body the door answers with
// the reference path's status, body and descriptor.
func TestDecodeSpecSameAsReference(t *testing.T) {
	srv := &server{opts: Options{MaxBody: 1 << 12}}
	big := `{"alg":"lmm3","keys":[0` + strings.Repeat(",1", 1<<12) + "]}"
	for _, tc := range []struct {
		name, body string
		chunked    bool
	}{
		{"chunked", `{"keys":[3,1,2],"alg":"lmm3"}`, true},
		{"chunked past MaxBody", big, true},
		{"Content-Length past MaxBody", big, false},
		{"Keys", `{"Keys":[3,1,2]}`, false},
		{"KEYS", `{"KEYS":[3,1,2]}`, false},
		{"repeated keys", `{"keys":[1],"keys":[3,1,2]}`, false},
		{"null", `{"keys":null,"workload":{"kind":"perm","n":8}}`, false},
		{"empty", `{"keys":[]}`, false},
		{"1.0", `{"keys":[1.0]}`, false},
		{"1e3", `{"keys":[1e3]}`, false},
		{"01", `{"keys":[01]}`, false},
		{"-0", `{"keys":[-0,5]}`, false},
		{"2^63", `{"keys":[9223372036854775808]}`, false},
		{"-2^63", `{"keys":[-9223372036854775808,0]}`, false},
		{"unknown field", `{"keys":[3,1,2],"colour":"red"}`, false},
		{"groupby", `{"keys":[5,3,5],"scenario":"groupby","groupPayloads":[1,2,3]}`, false},
	} {
		answer := func(decode func(http.ResponseWriter, *http.Request) (repro.JobSpec, bool)) (repro.JobSpec, bool, *httptest.ResponseRecorder) {
			r := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body))
			if tc.chunked {
				r.ContentLength, r.Body = -1, io.NopCloser(strings.NewReader(tc.body))
			}
			rec := httptest.NewRecorder()
			spec, ok := decode(rec, r)
			return spec, ok, rec
		}
		door, doorOK, doorRec := answer(srv.decodeSpec)
		ref, refOK, refRec := answer(func(w http.ResponseWriter, r *http.Request) (repro.JobSpec, bool) {
			return referenceDecodeSpec(srv, w, r)
		})
		if doorOK != refOK || doorRec.Code != refRec.Code || doorRec.Body.String() != refRec.Body.String() {
			t.Errorf("%s: door answered %d %q, reference %d %q", tc.name, doorRec.Code, doorRec.Body, refRec.Code, refRec.Body)
		} else if doorOK && !reflect.DeepEqual(door, ref) {
			t.Errorf("%s: door decoded %+v, reference %+v", tc.name, door, ref)
		}
	}
}

// TestTrailingDataRefused: a body with anything but whitespace after its
// value is a 400 on every JSON door, not a value with the rest dropped.
func TestTrailingDataRefused(t *testing.T) {
	ts, sch := testServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/jobs", `{"keys":[3,1,2]}{"keys":[9]}`},
		{"/jobs", `{"keys":[3,1,2]} garbage`},
		{"/plan", `{"keys":[3,1,2]} garbage`},
		{"/uploads", `{"id":"a"}{"id":"b"}`},
	} {
		resp, err := testClient.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg string
		json.Unmarshal(decodeObject(t, resp)["error"], &msg) //nolint:errcheck // a missing error fails below
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "after the top-level value") {
			t.Errorf("POST %s %q answered %d %q, want 400 naming the trailing data", tc.path, tc.body, resp.StatusCode, msg)
		}
	}
	if n := len(sch.Jobs()); n != 0 {
		t.Fatalf("%d bodies with trailing data became jobs", n)
	}
}

// TestDecodeSpecAllocation is the door's allocation tripwire: decoding a
// 64Ki-key submit body in the bench's shape costs at most the body, eight
// bytes a key, and 64 KiB besides.
func TestDecodeSpecAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = rng.Int63n(1<<41) - 1<<40
	}
	body, err := json.Marshal(SubmitRequest{Keys: keys, Alg: "lmm3", KeepKeys: true, Label: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{opts: Options{MaxBody: 64 << 20}}
	limit := uint64(len(body) + 8*len(keys) + 64<<10)
	var least uint64
	for run := 0; run < 3; run++ {
		r := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, ok := srv.decodeSpec(rec, r)
		runtime.ReadMemStats(&after)
		if !ok || !reflect.DeepEqual(spec.Keys, keys) {
			t.Fatalf("decode failed: %d %s", rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; run == 0 || grew < least {
			least = grew
		}
	}
	if least > limit {
		t.Fatalf("decoding a %d-byte, %d-key body allocated %d bytes, want at most %d", len(body), len(keys), least, limit)
	}
}
