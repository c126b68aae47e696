package repro_test

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/pdmdapi"
	"repro/internal/wire"
)

// wrappedFleet is startFleet with each worker's handler passed through
// wrap(i, handler) before it is mounted.
func wrappedFleet(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		sch, err := repro.NewScheduler(smallSched())
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wrap(i, pdmdapi.New(sch, pdmdapi.Options{MaxBody: 8 << 20})))
		t.Cleanup(func() {
			ts.Close()
			sch.Close()
		})
		urls = append(urls, ts.URL)
	}
	return urls
}

// headerDropper hides response headers a pre-binary worker never sent.
type headerDropper struct {
	http.ResponseWriter
	drop string
}

func (w headerDropper) WriteHeader(code int) {
	w.Header().Del(w.drop)
	w.ResponseWriter.WriteHeader(code)
}

// oldWorker makes a current worker answer as one built before the binary
// page body existed: /healthz offers nothing, a binary upload is the 400
// its JSON decoder would have given, and Accept is not looked at.
func oldWorker(h http.Handler, binaryUploads *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == wire.PageContentType {
			binaryUploads.Add(1)
			http.Error(w, `{"error":"bad request body: invalid character 'P' looking for beginning of value"}`, http.StatusBadRequest)
			return
		}
		r.Header.Del("Accept")
		h.ServeHTTP(headerDropper{w, "Accept-Post"}, r)
	})
}

// TestDistOldWorkerInterop: a fleet of old workers, and a fleet mixing one
// old worker with a current one, still completes Sort and SortRecords
// bit-identically — over JSON wherever the worker never offered the binary
// body, over the binary body where it did.
func TestDistOldWorkerInterop(t *testing.T) {
	const n = 9000
	keys := distWorkload(t, "zipf", n, 23)
	payloads := (&repro.PayloadSpec{MinBytes: 0, MaxBytes: 12}).Materialize(n, 23)
	for i := range payloads {
		payloads[i] = append(payloads[i], byte(i), byte(i>>8))
	}
	m, err := repro.NewMachine(repro.MachineConfig{Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantPayloads := slices.Clone(keys), clonePayloads(payloads)
	if _, err := m.SortRecords(wantKeys, wantPayloads, repro.Auto); err != nil {
		t.Fatal(err)
	}

	for _, oldOnes := range []int{2, 1} {
		var toOld, toNew atomic.Int64
		urls := wrappedFleet(t, 2, func(i int, h http.Handler) http.Handler {
			if i < oldOnes {
				return oldWorker(h, &toOld)
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get("Content-Type") == wire.PageContentType {
					toNew.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		})
		ds, err := repro.NewDistSorter(repro.DistConfig{Workers: urls, PageKeys: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ds.Sort(context.Background(), slices.Clone(keys))
		if err != nil || !slices.Equal(got, wantKeys) {
			t.Fatalf("%d old workers: Sort differs from the single-machine sort (err %v)", oldOnes, err)
		}
		gotKeys, gotPayloads, _, err := ds.SortRecords(context.Background(), slices.Clone(keys), clonePayloads(payloads))
		if err != nil || !slices.Equal(gotKeys, wantKeys) {
			t.Fatalf("%d old workers: SortRecords keys differ (err %v)", oldOnes, err)
		}
		for i := range gotPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("%d old workers: payload %d differs: got %x want %x", oldOnes, i, gotPayloads[i], wantPayloads[i])
			}
		}
		if toOld.Load() != 0 {
			t.Fatalf("%d binary uploads went to a worker that never offered the body", toOld.Load())
		}
		if (toNew.Load() > 0) != (oldOnes < 2) {
			t.Fatalf("%d old workers of 2: %d binary uploads reached current workers", oldOnes, toNew.Load())
		}
	}
}

// tamperKeys rewrites every binary /keys answer of one worker through
// edit, re-encoding whatever page it leaves.
func tamperKeys(h http.Handler, edit func(*wire.Page)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/keys") {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		pg, err := wire.ReadPage(rec.Body, int64(rec.Body.Len()), nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		edit(&pg)
		w.Header().Set("Content-Type", wire.PageContentType)
		w.Header().Set("Content-Length", strconv.Itoa(pg.BinaryLen()))
		pg.WriteBinary(w) //nolint:errcheck // test server
	})
}

// TestDistDownloadAsserts: the positional download places pages without
// comparing keys, so everything it assumes is checked — a worker answering
// a short page, a wrong n, or keys that overlap the neighbouring shard
// fails the job with an error naming that shard, never unsorted output.
func TestDistDownloadAsserts(t *testing.T) {
	keys := distWorkload(t, "uniform", 6000, 5)
	for _, tc := range []struct {
		name, want string
		edit       func(*wire.Page)
	}{
		{"short page", "result page: asked for", func(pg *wire.Page) { pg.Keys = pg.Keys[:len(pg.Keys)-1] }},
		{"wrong n", "result page: asked for", func(pg *wire.Page) { pg.N++ }},
		{"shifted window", "result page: asked for", func(pg *wire.Page) { pg.N, pg.Offset = pg.N+1, pg.Offset+1 }},
		{"overlapping shard", "overlaps its neighbour", func(pg *wire.Page) {
			if pg.Offset == 0 {
				pg.Keys[0] = math.MinInt64
			}
		}},
	} {
		var cancels atomic.Int64
		urls := wrappedFleet(t, 2, func(i int, h http.Handler) http.Handler {
			if i == 1 {
				return tamperKeys(h, tc.edit)
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/cancel") {
					cancels.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		})
		ds, err := repro.NewDistSorter(repro.DistConfig{Workers: urls, PageKeys: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := ds.Sort(context.Background(), slices.Clone(keys))
		if cancels.Load() != 1 {
			t.Fatalf("%s: the healthy worker saw %d cancels, want the fan-out's 1", tc.name, cancels.Load())
		}
		if err == nil || out != nil || rep != nil {
			t.Fatalf("%s: Sort returned %d keys, report %v, err %v; want only an error", tc.name, len(out), rep, err)
		}
		if !strings.Contains(err.Error(), "shard 1 on "+urls[1]) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name shard 1 and %q", tc.name, err, tc.want)
		}
	}
}

// TestDistReportPhases: phaseSeconds attributes the whole op — the five
// phases are non-negative and sum to elapsedSeconds within 5%.
func TestDistReportPhases(t *testing.T) {
	f := startFleet(t, 2, smallSched())
	ds, err := repro.NewDistSorter(repro.DistConfig{Workers: f.urls, PageKeys: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := ds.Sort(context.Background(), distWorkload(t, "perm", 30000, 3))
	if err != nil {
		t.Fatal(err)
	}
	ph := rep.PhaseSeconds
	sum := 0.0
	for _, s := range []float64{ph.Sample, ph.Partition, ph.Upload, ph.Sort, ph.Download} {
		if s < 0 {
			t.Fatalf("negative phase in %+v", ph)
		}
		sum += s
	}
	if ph.Sort == 0 || ph.Download == 0 || math.Abs(sum-rep.ElapsedSeconds) > 0.05*rep.ElapsedSeconds {
		t.Fatalf("phases %+v sum to %.6f s, elapsed %.6f s", ph, sum, rep.ElapsedSeconds)
	}
}
