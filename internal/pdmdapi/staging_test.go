package pdmdapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro"
	"repro/internal/wire"
)

// TestReusedStagingKeepsResults: a committed upload's page buffers are
// reused by the next upload's binary pages, and that must not reach the
// first job's result.  Upload A is committed with KeepKeys; upload B then
// stages different keys, which land in A's released buffers, and commits.
// A's /keys must still page out A's sorted keys, and B's B's.
func TestReusedStagingKeepsResults(t *testing.T) {
	sch, err := repro.NewScheduler(repro.SchedulerConfig{
		Memory: 12000, Workers: 2, JobMemory: 1024,
		Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, h := newServer(sch, Options{MaxBody: 1 << 20})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		sch.Close()
	})

	const pageKeys, pages = 1024, 3
	stage := func(id string, keys []int64) {
		t.Helper()
		resp := uploadCreateReq(t, ts.URL, id)
		resp.Body.Close()
		for seq := range pages {
			var body bytes.Buffer
			pg := wire.Page{N: len(keys), Offset: seq * pageKeys, Keys: keys[seq*pageKeys : (seq+1)*pageKeys]}
			if err := pg.WriteBinary(&body); err != nil {
				t.Fatal(err)
			}
			resp, err := testClient.Post(fmt.Sprintf("%s/uploads/%s/pages?seq=%d", ts.URL, id, seq), wire.PageContentType, &body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s page %d = %d", id, seq, resp.StatusCode)
			}
		}
	}
	commit := func(id string) int {
		t.Helper()
		resp, obj := uploadCommitReq(t, ts.URL, id, map[string]any{"alg": "lmm3", "keepKeys": true})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("commit %s = %d: %v", id, resp.StatusCode, obj)
		}
		var jobID int
		if err := json.Unmarshal(obj["id"], &jobID); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, ts.URL, jobID, repro.JobDone)
		return jobID
	}
	// stagedAt lists where an upload's staged pages keep their keys.
	stagedAt := func(id string) []*int64 {
		srv.ups.mu.Lock()
		defer srv.ups.mu.Unlock()
		var at []*int64
		for _, pg := range srv.ups.ups[id].pages {
			at = append(at, &pg.keys[0])
		}
		return at
	}

	keysA, keysB := make([]int64, pages*pageKeys), make([]int64, pages*pageKeys)
	for i := range keysA {
		keysA[i] = int64(i*7919%5003) - 2500
		keysB[i] = int64(i*104729%7001) + 1<<40
	}
	stage("A", keysA)
	atA := stagedAt("A")
	jobA := commit("A")
	stage("B", keysB)
	atB := stagedAt("B")
	for _, p := range atB {
		if !slices.Contains(atA, p) {
			t.Fatalf("upload B staged a page in a fresh buffer, not in one of A's %d released ones", len(atA))
		}
	}
	jobB := commit("B")

	for _, c := range []struct {
		job  int
		keys []int64
	}{{jobA, keysA}, {jobB, keysB}} {
		resp, err := testClient.Get(fmt.Sprintf("%s/jobs/%d/keys?limit=%d", ts.URL, c.job, len(c.keys)))
		if err != nil {
			t.Fatal(err)
		}
		var pg wire.Page
		err = json.NewDecoder(resp.Body).Decode(&pg)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(c.keys)
		slices.Sort(want)
		if !slices.Equal(pg.Keys, want) {
			t.Fatalf("job %d pages out %d keys that are not its own input sorted", c.job, len(pg.Keys))
		}
	}
}
