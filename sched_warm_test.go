//go:build !race

package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"repro"
	"repro/internal/pdmdapi"
	"repro/internal/workload"
)

// TestWarmSchedulerJobAllocations bounds what a warm pdmd job allocates on
// the host, client and server together: a file-backed scheduler behind the
// real handler, at M = 1 Ki, sorting 32 Ki inline keys with lmm3 and
// KeepKeys.  A warm job takes the idle machine the last one left (its open
// disks and its arena's buffers), and its JSON body is read into a staging
// buffer the last body gave back, so what it allocates is its own keys,
// decoded out of the body and kept as the result, plus a constant of
// net/http, the job's status and its report: ≈ 1.26 copies of the keys at
// this shape.  A fresh machine and body buffer per job make it ≈ 3.6.  The
// least of four warm jobs is taken: one that dials a fresh connection
// allocates its buffers too.
func TestWarmSchedulerJobAllocations(t *testing.T) {
	const mem, n = 1024, 32 * 1024
	sch, err := repro.NewScheduler(repro.SchedulerConfig{
		Memory: 64 * mem, Workers: 2, JobMemory: mem, Dir: t.TempDir(),
		Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(pdmdapi.New(sch, pdmdapi.Options{}))
	defer sch.Close()
	defer ts.Close()
	keys := workload.Uniform(n, -1<<40, 1<<40, 3)
	body, err := json.Marshal(pdmdapi.SubmitRequest{Keys: keys, Alg: repro.ThreePassLMM, KeepKeys: true, Label: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	job := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st repro.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %v", resp.StatusCode, err)
		}
		if st, err = sch.Wait(context.Background(), st.ID); err != nil || st.State != repro.JobDone {
			t.Fatalf("job %d: %v %s %s", st.ID, err, st.State, st.Error)
		}
		runtime.ReadMemStats(&after)
		if got, err := sch.SortedKeys(st.ID); err != nil || !slices.Equal(got, want) {
			t.Fatalf("job %d output differs from slices.Sort (%v)", st.ID, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	job() // warm the idle machine, the body buffer and the connection
	least := job()
	for range 3 {
		least = min(least, job())
	}
	if st := sch.Stats(); st.Reused < 4 {
		t.Fatalf("%d of 5 jobs took an idle machine, want at least 4", st.Reused)
	}
	const bound = 8 * n * 3 / 2
	t.Logf("a warm job of %d keys allocates %d B (bound %d B, one copy is %d B)", n, least, bound, 8*n)
	if least > bound {
		t.Errorf("a warm job of %d keys allocates %d B, more than %d B (1.5 copies of the keys)", n, least, bound)
	}
}
