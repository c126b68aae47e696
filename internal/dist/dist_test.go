package dist

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// TestPartition checks the invariants the positional download rests on:
// every record lands in exactly one shard, in the range records.RangeShard
// names, in input order within it, its payload beside it; equal keys share
// a shard; and per-shard sorts concatenate to the global sort.
func TestPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, 500)
	payloads := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = int64(rng.Intn(50))               // heavy duplicates
		payloads[i] = []byte{byte(i >> 8), byte(i)} // the input position
	}
	splitters := []int64{10, 25, 25, 40} // duplicate splitter = empty shard
	part, partPay, starts := partition(keys, payloads, splitters)
	if len(starts) != len(splitters)+2 || starts[0] != 0 || starts[len(starts)-1] != len(keys) || len(partPay) != len(part) {
		t.Fatalf("starts %v, %d keys, %d payloads for %d splitters over %d keys", starts, len(part), len(partPay), len(splitters), len(keys))
	}
	shards, shardPayloads := make([][]int64, len(starts)-1), make([][][]byte, len(starts)-1)
	for s := range shards {
		shards[s], shardPayloads[s] = part[starts[s]:starts[s+1]], window(partPay, starts[s], starts[s+1])
	}
	var concat []int64
	total := 0
	for s, sh := range shards {
		if len(shardPayloads[s]) != len(sh) {
			t.Fatalf("shard %d: %d payloads for %d keys", s, len(shardPayloads[s]), len(sh))
		}
		prev := -1
		for j, k := range sh {
			pos := int(shardPayloads[s][j][0])<<8 | int(shardPayloads[s][j][1])
			if pos <= prev {
				t.Fatalf("shard %d out of input order: position %d after %d", s, pos, prev)
			}
			prev = pos
			if keys[pos] != k {
				t.Fatalf("shard %d: key %d travelled with the payload of key %d", s, k, keys[pos])
			}
			if got := records.RangeShard(k, splitters); got != s {
				t.Fatalf("key %d in shard %d, RangeShard says %d", k, s, got)
			}
		}
		total += len(sh)
		part := slices.Clone(sh)
		slices.Sort(part)
		concat = append(concat, part...)
	}
	if total != len(keys) {
		t.Fatalf("partition covers %d of %d keys", total, len(keys))
	}
	if len(shards[2]) != 0 {
		t.Fatalf("degenerate range [25,25) got %d keys", len(shards[2]))
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(concat, want) {
		t.Fatal("per-shard sorts do not concatenate to the global sort")
	}
	// Keys only: no payloads are built, and every window of them is nil.
	if _, pp, _ := partition(keys, nil, splitters); len(pp) != 0 || window(pp, 0, 0) != nil {
		t.Fatalf("keys-only partition built %d payloads", len(pp))
	}
}
