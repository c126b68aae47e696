package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/records"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func testCoordinator(t *testing.T, workers int) *Coordinator {
	t.Helper()
	urls := make([]string, workers)
	for i := range urls {
		urls[i] = "http://worker" + string(rune('a'+i)) + ".invalid"
	}
	c, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("New accepted an empty worker list")
	}
	c := testCoordinator(t, 2)
	if got := c.WorkerURLs(); len(got) != 2 {
		t.Fatalf("WorkerURLs = %v, want 2 entries", got)
	}
	// Defaults fill in: page size, concurrency, timeout, label.
	if c.cfg.PageKeys <= 0 || c.cfg.Concurrency <= 0 || c.cfg.RequestTimeout <= 0 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
	if got := c.clients[0].retries; got != retries {
		t.Fatalf("client retries = %d, want %d", got, retries)
	}
}

// Splitters must be a pure function of the input: same keys, same worker
// count, same splitters — that determinism is half of the bit-identical
// output contract (the merge tie-break is the other half).
func TestSplittersDeterministicAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, 50000)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	for _, w := range []int{2, 3, 4, 8} {
		c := testCoordinator(t, w)
		sp1, s1 := c.splitters(keys, w)
		sp2, s2 := c.splitters(slices.Clone(keys), w)
		if !slices.Equal(sp1, sp2) || s1 != s2 {
			t.Fatalf("w=%d: splitters not deterministic: %v/%d vs %v/%d", w, sp1, s1, sp2, s2)
		}
		if len(sp1) != w-1 {
			t.Fatalf("w=%d: got %d splitters, want %d", w, len(sp1), w-1)
		}
		if !slices.IsSorted(sp1) {
			t.Fatalf("w=%d: splitters not sorted: %v", w, sp1)
		}
		if s1 <= 0 || s1 > len(keys) {
			t.Fatalf("w=%d: sample size %d out of range", w, s1)
		}
	}
	// One worker needs no splitters.
	c := testCoordinator(t, 1)
	if sp, s := c.splitters(keys, 1); sp != nil || s != 0 {
		t.Fatalf("w=1: got %v/%d, want nil/0", sp, s)
	}
}

// Splitter balance on a uniform input: no shard should be pathologically
// large, since that is exactly what the Θ(k·α·log n) oversampling bounds.
func TestSplittersBalanceUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, 100000)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	const w = 4
	c := testCoordinator(t, w)
	sp, _ := c.splitters(keys, w)
	counts := make([]int, w)
	for _, k := range keys {
		i, _ := slices.BinarySearch(sp, k+1) // key == splitter goes right
		counts[i]++
	}
	want := len(keys) / w
	for i, got := range counts {
		if got < want/2 || got > want*2 {
			t.Fatalf("shard %d has %d keys, want within [%d, %d] of %d: %v",
				i, got, want/2, want*2, want, counts)
		}
	}
}

func TestRetryableCodes(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusInsufficientStorage} {
		if !retryable(code) {
			t.Errorf("retryable(%d) = false, want true", code)
		}
	}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusConflict, http.StatusInternalServerError} {
		if retryable(code) {
			t.Errorf("retryable(%d) = true, want false", code)
		}
	}
}

// The client retries transient statuses and surfaces the eventual answer;
// non-retryable statuses fail immediately with a statusError.
func TestClientRetriesTransient(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits < 3 {
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
	}))
	defer ts.Close()
	cl := &client{base: ts.URL, http: ts.Client(), timeout: 5 * time.Second, retries: 5}
	h, err := cl.health(t.Context())
	if err != nil {
		t.Fatalf("health after transient 503s: %v", err)
	}
	if h.Status != "ok" || hits != 3 {
		t.Fatalf("status %q after %d hits, want ok after 3", h.Status, hits)
	}

	hits = 0
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer ts2.Close()
	cl2 := &client{base: ts2.URL, http: ts2.Client(), timeout: 5 * time.Second, retries: 5}
	if _, err := cl2.status(t.Context(), 1); err == nil {
		t.Fatalf("status on 404 succeeded")
	}
	if hits != 1 {
		t.Fatalf("404 was retried %d times, want 1 attempt", hits)
	}
}

// TestCommitBodyReachesWorkerIntact is the distributed leg of the
// descriptor round trip: the commit body the client sends a worker is the
// job descriptor itself, so one with every field set must arrive at the
// worker's decoder (strict, like pdmd's) exactly as it left.
func TestCommitBodyReachesWorkerIntact(t *testing.T) {
	full := wiretest.FullJobSpec()
	var got wire.JobSpec
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/uploads/u1/commit" {
			http.Error(w, "unexpected "+r.Method+" "+r.URL.Path, http.StatusNotFound)
			return
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(wire.JobStatus{ID: 7, State: wire.JobQueued}) //nolint:errcheck // test server
	}))
	defer worker.Close()
	c, err := New(Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.clients[0].uploadCommit(context.Background(), "u1", full)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 7 || st.State != wire.JobQueued {
		t.Fatalf("commit answered %+v", st)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("commit body lost fields:\n got %+v\nwant %+v", got, full)
	}
}

// referencePartition is partition as it was first written: a
// sort.Search per key in the counting pass and again in the scatter.
func referencePartition(keys []int64, payloads [][]byte, splitters []int64) ([]int64, [][]byte, []int) {
	shardOf := func(k int64) int {
		return sort.Search(len(splitters), func(i int) bool { return k < splitters[i] })
	}
	starts := make([]int, len(splitters)+2)
	for _, k := range keys {
		starts[shardOf(k)+1]++
	}
	for s := 1; s < len(starts); s++ {
		starts[s] += starts[s-1]
	}
	part, partPay, next := make([]int64, len(keys)), make([][]byte, len(payloads)), slices.Clone(starts)
	for i, k := range keys {
		s := shardOf(k)
		part[next[s]] = k
		if payloads != nil {
			partPay[next[s]] = payloads[i]
		}
		next[s]++
	}
	return part, partPay, starts
}

// TestPartitionMatchesReference pins the shard assignment: partition's
// keys, payloads and shard starts are identical to the reference's on
// random full-range keys, heavy duplicates and keys equal to a splitter,
// at 1, 2, 3, 4, 16, 17 and 300 splitters.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nsplit := range []int{1, 2, 3, 4, 16, 17, 300} {
		for _, shape := range []string{"random", "duplicates", "on-splitters"} {
			keys := make([]int64, 5000)
			for i := range keys {
				switch shape {
				case "random":
					keys[i] = int64(rng.Uint64())
				default:
					keys[i] = int64(rng.Intn(40)) - 20
				}
			}
			splitters := make([]int64, nsplit)
			for i := range splitters {
				splitters[i] = keys[rng.Intn(len(keys))] // every splitter is some key
			}
			if shape == "on-splitters" {
				for i := range keys {
					keys[i] = splitters[rng.Intn(nsplit)]
				}
			}
			slices.Sort(splitters)
			payloads := make([][]byte, len(keys))
			for i := range payloads {
				payloads[i] = []byte{byte(i >> 8), byte(i)}
			}
			name := fmt.Sprintf("%s/splitters=%d", shape, nsplit)
			part, partPay, starts := partition(new(partBuf), keys, payloads, splitters)
			wantPart, wantPay, wantStarts := referencePartition(keys, payloads, splitters)
			if !slices.Equal(part, wantPart) || !slices.Equal(starts, wantStarts) {
				t.Fatalf("%s: partition differs from the reference", name)
			}
			for i := range partPay {
				if !slices.Equal(partPay[i], wantPay[i]) {
					t.Fatalf("%s: payload %d differs from the reference", name, i)
				}
			}
		}
	}
}

// TestPartition checks the invariants the positional download rests on:
// every record lands in exactly one shard, in the range records.RangeShard
// names, in input order within it, its payload beside it; the shard starts
// are exact; equal keys share a shard; and per-shard sorts concatenate to
// the global sort.  Inputs are random, with heavy duplicates and keys equal
// to splitters, at every splitter count 0–17 (duplicate splitters make
// empty shards), with and without payloads, into a fresh destination and
// into one left longer than the job and dirty by an earlier one, as a
// borrowed buffer is.
func TestPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for nsplit := 0; nsplit <= 17; nsplit++ {
		for trial := 0; trial < 4; trial++ {
			keys := make([]int64, 500)
			payloads := make([][]byte, len(keys))
			for i := range keys {
				keys[i] = int64(rng.Intn(50))               // heavy duplicates
				payloads[i] = []byte{byte(i >> 8), byte(i)} // the input position
			}
			splitters := make([]int64, nsplit)
			for i := range splitters {
				splitters[i] = int64(rng.Intn(50)) // equal to keys, and often to each other
			}
			slices.Sort(splitters)
			name := fmt.Sprintf("splitters %v", splitters)
			checkPartition(t, name, new(partBuf), keys, payloads, splitters)
			longer := &partBuf{keys: make([]int64, len(keys)+37), pay: make([][]byte, len(keys)+37)}
			for i := range longer.keys {
				longer.keys[i], longer.pay[i] = -1, []byte("stale")
			}
			checkPartition(t, name+" (longer destination)", longer, keys, payloads, splitters)
			if len(longer.keys) != len(keys)+37 || len(longer.pay) != len(keys)+37 {
				t.Fatalf("%s: partition replaced a destination long enough for the job", name)
			}
			keysOnly, pp, starts := partition(new(partBuf), keys, nil, splitters)
			if pp != nil || window(pp, 0, 0) != nil {
				t.Fatalf("%s: keys-only partition built %d payloads", name, len(pp))
			}
			if part, _, want := partition(new(partBuf), keys, payloads, splitters); !slices.Equal(keysOnly, part) || !slices.Equal(starts, want) {
				t.Fatalf("%s: keys-only partition differs from the records partition", name)
			}
		}
	}
}

// checkPartition partitions keys with their payloads (each the key's input
// position, two bytes) into dst and checks TestPartition's invariants.
func checkPartition(t *testing.T, name string, dst *partBuf, keys []int64, payloads [][]byte, splitters []int64) {
	t.Helper()
	part, partPay, starts := partition(dst, keys, payloads, splitters)
	if len(starts) != len(splitters)+2 || starts[0] != 0 || starts[len(starts)-1] != len(keys) ||
		len(part) != len(keys) || len(partPay) != len(part) {
		t.Fatalf("%s: starts %v, %d keys, %d payloads over %d keys", name, starts, len(part), len(partPay), len(keys))
	}
	sizes := make([]int, len(splitters)+1)
	for _, k := range keys {
		sizes[sort.Search(len(splitters), func(i int) bool { return k < splitters[i] })]++
	}
	var concat []int64
	for s := range sizes {
		if got := starts[s+1] - starts[s]; got != sizes[s] {
			t.Fatalf("%s: shard %d holds %d keys, want %d", name, s, got, sizes[s])
		}
		sh, shPay := part[starts[s]:starts[s+1]], window(partPay, starts[s], starts[s+1])
		prev := -1
		for j, k := range sh {
			pos := int(shPay[j][0])<<8 | int(shPay[j][1])
			if pos <= prev {
				t.Fatalf("%s: shard %d out of input order: position %d after %d", name, s, pos, prev)
			}
			prev = pos
			if keys[pos] != k {
				t.Fatalf("%s: shard %d: key %d travelled with the payload of key %d", name, s, k, keys[pos])
			}
			if got := records.RangeShard(k, splitters); got != s {
				t.Fatalf("%s: key %d in shard %d, RangeShard says %d", name, k, s, got)
			}
		}
		sorted := slices.Clone(sh)
		slices.Sort(sorted)
		concat = append(concat, sorted...)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(concat, want) {
		t.Fatalf("%s: per-shard sorts do not concatenate to the global sort", name)
	}
}

// BenchmarkPartition times the coordinator's partition of 2 Mi uniform
// full-range keys, without payloads, at 1 and 7 splitters (2 and 8
// workers) read off the sorted keys' quantiles.  "warm" scatters into the
// same destination every iteration, as a warm coordinator's borrowed
// buffer, so it times the routing and the scatter; "cold" scatters into a
// fresh one, as a sorter's first job does, so it adds the buffer's make
// and first touch.
func BenchmarkPartition(b *testing.B) {
	const n = 2 << 20
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64())
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for _, nsplit := range []int{1, 7} {
		splitters := make([]int64, nsplit)
		for i := range splitters {
			splitters[i] = sorted[(i+1)*n/(nsplit+1)]
		}
		for _, warm := range []bool{true, false} {
			name := fmt.Sprintf("splitters=%d/cold", nsplit)
			if warm {
				name = fmt.Sprintf("splitters=%d/warm", nsplit)
			}
			b.Run(name, func(b *testing.B) {
				dst := new(partBuf)
				partition(dst, keys, nil, splitters)
				b.SetBytes(n * 8)
				b.ResetTimer()
				for range b.N {
					if !warm {
						dst = new(partBuf)
					}
					partition(dst, keys, nil, splitters)
				}
			})
		}
	}
}

// TestPutBufKeepsOnlyFittingBuffers: a successful job's buffer goes back
// to the free list unless a field is more than twice the job, so a large
// job's buffer is not held through a run of small ones; its payload views
// are cleared either way.
func TestPutBufKeepsOnlyFittingBuffers(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://worker"}})
	if err != nil {
		t.Fatal(err)
	}
	b := c.bufs.Take()
	fit(&b.keys, 1000)
	fit(&b.pay, 1000)[0] = []byte("caller's")
	c.putBuf(b, 500)
	if got := c.bufs.Take(); got != b || len(b.keys) != 1000 || len(b.pay) != 1000 || b.pay[0] != nil {
		t.Fatalf("a job of half the buffer got back %d keys, %d payloads (first %q), want the buffer whole with its views cleared", len(got.keys), len(got.pay), got.pay[0])
	}
	c.putBuf(b, 499)
	if got := c.bufs.Take(); got != b || b.keys != nil || b.pay != nil {
		t.Fatalf("a job of less than half the buffer kept %d keys and %d payloads of it, want none", len(got.keys), len(got.pay))
	}
	fit(&b.keys, 1000)
	c.putBuf(b, 400)
	if got := c.bufs.Take(); len(got.keys) != 0 {
		t.Fatalf("a keys job of 400 kept a 1000-key buffer")
	}
}

// TestUploadRetryResendsSameBody: a binary upload page is sent from views
// of the shard's keys, not a copy, so a retry must open a fresh reader over
// the same bytes.  The first attempt of each page is answered 503 after
// half its body is read; the retry must carry exactly Page.WriteBinary's
// body under a Content-Length of BinaryLen, and once uploadPage returns
// every body it opened must be closed.
func TestUploadRetryResendsSameBody(t *testing.T) {
	var attempts int
	var got []byte
	var gotLen int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			io.CopyN(io.Discard, r.Body, r.ContentLength/2) //nolint:errcheck // test server
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		if r.Header.Get("Content-Type") != wire.PageContentType {
			http.Error(w, "content type "+r.Header.Get("Content-Type"), http.StatusBadRequest)
			return
		}
		got, gotLen = nil, r.ContentLength
		got, _ = io.ReadAll(r.Body)
		w.Write([]byte(`{"seq":0,"staged":true}`)) //nolint:errcheck // test server
	}))
	defer worker.Close()
	cl := &client{base: worker.URL, http: worker.Client(), timeout: 5 * time.Second, retries: 3}
	cl.binary.Store(true)
	keys := make([]int64, 3000)
	for i := range keys {
		keys[i] = int64(i*7919) - 1<<40
	}
	payloads := make([][]byte, len(keys))
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprint(i))
	}
	for _, pg := range []wire.Page{
		{N: 5000, Offset: 2000, Keys: keys},
		{N: 5000, Offset: 2000, Keys: keys, Payloads: payloads},
	} {
		attempts = 0
		var open sync.WaitGroup
		if err := cl.uploadPage(t.Context(), "u", 0, pg, &open); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
		err := waitClosed(ctx, &open)
		cancel()
		if err != nil {
			t.Fatalf("upload bodies still open after uploadPage returned: %v", err)
		}
		var want bytes.Buffer
		if err := pg.WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if attempts != 2 || gotLen != int64(pg.BinaryLen()) || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("records=%v: after %d attempts the worker got %d bytes (Content-Length %d), want WriteBinary's %d (equal=%v)",
				pg.Payloads != nil, attempts, len(got), gotLen, want.Len(), bytes.Equal(got, want.Bytes()))
		}
	}
}
