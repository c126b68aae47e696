package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// benchBody is a POST /jobs body in the bench's serve-durable shape: n
// uniform keys, lmm3, kept keys, a label.
func benchBody(tb testing.TB, n int) []byte {
	tb.Helper()
	body, err := json.Marshal(JobSpec{Keys: workload.Uniform(n, -1<<40, 1<<40, 1), Alg: "lmm3", KeepKeys: true, Label: "bench"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// doorBodies are the edge bodies of the door: whether the fast path takes
// each, and (through sameAsReference) that it answers as encoding/json.
var doorBodies = []struct {
	body string
	fast bool
}{
	{`{}`, false},
	{`{"keys":[]}`, false},
	{`{"keys":[ ]}`, false},
	{` { "keys" : [ 3 ,1,	-2 ] ,"alg":"lmm3" }` + "\r\n", true},
	{`{"keys":[-9223372036854775808,9223372036854775807,-0,0]}`, true},
	{`{"keys":[5,3,5],"scenario":"groupby","groupPayloads":[1,2,3]}`, true},
	{`{"groupPayloads":[0],"keys":[1],"label":"a,}]\"{[","workload":{"kind":"perm","n":4}}`, true},
	{`{"ingestBatch":[1,2],"keys":[0]}`, true},

	{`{"Keys":[3,1,2]}`, false},
	{`{"KEYS":[3,1,2]}`, false},
	{"{\"\u212aeys\":[3,1,2]}", false}, // KELVIN SIGN folds to k
	{`{"k\u0065ys":[3,1,2]}`, false},
	{`{"groupPAYLOADS":[1],"keys":[1]}`, false},
	{`{"keys":[1],"keys":[2,3]}`, false},
	{`{"keys":null}`, false},
	{`{"keys":[1.0]}`, false},
	{`{"keys":[1e3]}`, false},
	{`{"keys":[01]}`, false},
	{`{"keys":[-]}`, false},
	{`{"keys":[1,]}`, false},
	{`{"keys":[1 2]}`, false},
	{`{"keys":[1,null]}`, false},
	{`{"keys":["1"]}`, false},
	{`{"keys":[9223372036854775808]}`, false},
	{`{"keys":[-9223372036854775809]}`, false},
	{`{"keys":[12345678901234567890]}`, false},
	{`{"keys":[3,1,2],"colour":"red"}`, false},
	{`{"keys":[3],"alg":"bogus"}`, false},
	{`{"keys":[3],"memory":"big"}`, false},
	{`{"keys":[3,1,2]}{"keys":[9]}`, false},
	{`{"keys":[3,1,2]} garbage`, false},
	{`{"keys":[3,1,2]}}`, false},
	{`{"keys":[3,1,2]`, false},
	{`{"keys":[3],"label":"x" "alg":"lmm3"}`, false},
	{`{"label":]}`, false},
	{`[1,2]`, false},
	{`null`, false},
	{``, false},
}

// sameAsReference fails t unless DecodeJSON answers body exactly as the
// reference decoder does: equal values (nil and empty slices apart) when
// both succeed, equal error text when both fail.
func sameAsReference(t *testing.T, body []byte) {
	t.Helper()
	var door, ref JobSpec
	errDoor, errRef := DecodeJSON(body, &door), decodeReference(body, &ref)
	switch {
	case (errDoor == nil) != (errRef == nil) || errDoor != nil && errDoor.Error() != errRef.Error():
		t.Fatalf("body %q: door said %v, reference %v", body, errDoor, errRef)
	case errDoor == nil && !reflect.DeepEqual(door, ref):
		t.Fatalf("body %q: door decoded %+v, reference %+v", body, door, ref)
	}
}

// TestDecodeJSONDoor: the fast path takes the canonical shapes, including
// the bench's body, and leaves every edge body to encoding/json; either
// way the answer is the reference decoder's.
func TestDecodeJSONDoor(t *testing.T) {
	for _, tc := range append(doorBodies, struct {
		body string
		fast bool
	}{string(benchBody(t, 4096)), true}) {
		var spec JobSpec
		if got := decodeSpecFast([]byte(tc.body), &spec); got != tc.fast {
			t.Errorf("body %.60q: fast path took it = %v, want %v", tc.body, got, tc.fast)
		}
		sameAsReference(t, []byte(tc.body))
	}
	// Trailing data is refused, by the door and by every other body.
	for _, body := range []string{`{"keys":[3,1,2]}{"keys":[9]}`, `{"keys":[3,1,2]} garbage`} {
		if err := DecodeJSON([]byte(body), &JobSpec{}); !errors.Is(err, errTrailing) {
			t.Errorf("body %q: got %v, want the trailing-data error", body, err)
		}
		var pg Page
		if err := DecodeJSON([]byte(strings.ReplaceAll(body, `"keys"`, `"n":1,"keys"`)), &pg); !errors.Is(err, errTrailing) {
			t.Errorf("page body %q: got %v, want the trailing-data error", body, err)
		}
	}
}

// FuzzDecodeJobSpec is the door's differential test: for every body,
// DecodeJSON and the reference decoder (encoding/json, unknown fields
// refused, whitespace only after the value) agree — equal values, nil and
// empty slices apart, or the same error text.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add(benchBody(f, 64))
	for _, tc := range doorBodies {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameAsReference(t, body)
	})
}

// TestPageWriteJSON: WriteJSON writes exactly json.NewEncoder's bytes, on
// edge pages and random ones large enough to cross its buffer many times,
// allocates nothing per page, and reports the writer's error.
func TestPageWriteJSON(t *testing.T) {
	pages := []Page{
		{},
		{N: 5, Offset: 5, Keys: []int64{}},
		{N: 3, Keys: []int64{math.MinInt64, 0, math.MaxInt64}},
		{N: 9, Offset: 4, Keys: []int64{7, 7, 8}, Payloads: [][]byte{nil, {}, []byte("<&>x")}},
		{N: 1, Keys: []int64{1}, Payloads: [][]byte{nil}},
		{N: 2, Keys: []int64{}, Payloads: [][]byte{}},
		{N: 1, Keys: []int64{42}, Payloads: [][]byte{bytes.Repeat([]byte{0xfb}, 10000)}},
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 40; i++ {
		p := Page{N: rng.Intn(1 << 30), Offset: rng.Intn(1 << 20), Keys: make([]int64, rng.Intn(3000))}
		for j := range p.Keys {
			p.Keys[j] = int64(rng.Uint64()) >> rng.Intn(64)
		}
		if i%2 == 1 {
			p.Payloads = make([][]byte, len(p.Keys))
			for j := range p.Payloads {
				if ln := rng.Intn(40) - 1; ln >= 0 {
					p.Payloads[j] = make([]byte, ln)
					rng.Read(p.Payloads[j])
				}
			}
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(p); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteJSON(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("page %d: WriteJSON wrote\n%.200q (%v)\nencoding/json\n%.200q", i, got.Bytes(), err, want.Bytes())
		}
	}
	big := pages[len(pages)-1]
	if allocs := testing.AllocsPerRun(20, func() { big.WriteJSON(io.Discard) }); allocs != 0 { //nolint:errcheck // io.Discard does not fail
		t.Errorf("WriteJSON allocated %.1f times per page", allocs)
	}
	if err := big.WriteJSON(failWriter{}); !errors.Is(err, errFail) {
		t.Errorf("WriteJSON into a failing writer: got %v", err)
	}
}

var errFail = errors.New("write refused")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var specSink JobSpec

// BenchmarkDecodeJobSpec is the submit decode of a 64Ki-key body in the
// bench's serve-durable shape: the reference decoder against the door.
func BenchmarkDecodeJobSpec(b *testing.B) {
	const n = 1 << 16
	body := benchBody(b, n)
	for _, c := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"reference", decodeReference}, {"door", DecodeJSON}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				specSink = JobSpec{}
				if err := c.decode(body, &specSink); err != nil || len(specSink.Keys) != n {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}
