package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/pdm"
)

// The daemon-level acceptance test for durable jobs: a real pdmd process
// is SIGKILLed in the middle of a multi-pass sort — after at least one
// pass checkpoint hit the journal — and a second pdmd over the same
// -journal and -scratch directories finishes the job with output and
// deterministic statistics bit-identical to an uninterrupted run, with
// the jobs queued behind it re-admitted in their original order.  The
// pdmctl verbs are smoke-tested against the restarted daemon.

// buildCmd compiles one of the repo's commands into dir and returns the
// binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// freeAddr grabs an ephemeral localhost port and releases it for the
// daemon to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches pdmd over the shared directories and waits until
// /healthz answers.  The returned process is still running; callers kill
// or terminate it themselves.
func startDaemon(t *testing.T, bin, addr, scratch, jdir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-mem", "4000",
		"-jobmem", "1024",
		"-workers", "2",
		"-scratch", scratch,
		"-journal", jdir,
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill() //nolint:errcheck // already exited is fine
			cmd.Wait()         //nolint:errcheck // reaped on the happy path
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pdmd on %s never became healthy", addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitJob posts one job and returns its id.
func submitJob(t *testing.T, addr string, body map[string]any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/jobs", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %+v", resp.StatusCode, st)
	}
	return st.ID
}

// daemonStatus fetches one job's status from a live daemon.
func daemonStatus(t *testing.T, addr string, id int) JobStatus {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/jobs/%d", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%d = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollDone polls a job to the done state.
func pollDone(t *testing.T, addr string, id int) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := daemonStatus(t, addr, id)
		switch st.State {
		case JobDone:
			return st
		case JobFailed, JobCanceled:
			t.Fatalf("job %d reached %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchKeys pages nothing: the whole sorted output in one request.
func fetchKeys(t *testing.T, addr string, id int) []int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/jobs/%d/keys", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET keys = %d", resp.StatusCode)
	}
	var page struct {
		Keys []int64 `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page.Keys
}

func TestPdmdKillRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs daemon processes")
	}
	bindir := t.TempDir()
	pdmd := buildCmd(t, bindir, "pdmd")
	pdmctl := buildCmd(t, bindir, "pdmctl")
	scratch, jdir := t.TempDir(), t.TempDir()

	// Control: the interrupted job's spec, uninterrupted on a dedicated
	// machine with the daemon's job geometry.
	spec := JobSpec{
		Workload:       &WorkloadSpec{Kind: "perm", N: 16 * 1024, Seed: 31},
		Alg:            ThreePassLMM,
		BlockLatencyUS: 2000,
	}
	ctrl, err := NewMachine(MachineConfig{
		Memory:       1024,
		Workers:      2,
		Pipeline:     PipelineConfig{Prefetch: 2, WriteBehind: 2},
		BlockLatency: time.Duration(spec.BlockLatencyUS) * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, err := spec.Workload.Generate()
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := ctrl.Sort(wantKeys, spec.Alg)
	ctrl.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Life 1: the slowed three-pass job plus two queued behind it (the
	// budget admits one envelope at a time).
	addr1 := freeAddr(t)
	d1 := startDaemon(t, pdmd, addr1, scratch, jdir)
	id1 := submitJob(t, addr1, map[string]any{
		"workload":       map[string]any{"kind": "perm", "n": 16 * 1024, "seed": 31},
		"alg":            "lmm3",
		"blockLatencyUs": 2000,
		"keepKeys":       true,
		"label":          "victim",
	})
	id2 := submitJob(t, addr1, map[string]any{
		"workload": map[string]any{"kind": "sortedruns", "n": 8 * 1024, "seed": 32},
		"alg":      "exp2",
		"keepKeys": true,
		"label":    "fifo-a",
	})
	id3 := submitJob(t, addr1, map[string]any{
		"workload": map[string]any{"kind": "uniform", "n": 16 * 1024, "seed": 33},
		"alg":      "mesh3",
		"keepKeys": true,
		"label":    "fifo-b",
	})

	// Wait until at least one completed pass is journaled, then SIGKILL:
	// no drain, no checkpoint flush — the crash case.
	deadline := time.Now().Add(30 * time.Second)
	for {
		recs, _, rerr := journal.Replay(jdir)
		passed := false
		if rerr == nil {
			for _, rec := range recs {
				var cp pdm.Checkpoint
				if rec.Type == journal.Checkpoint && rec.Job == id1 &&
					json.Unmarshal(rec.Data, &cp) == nil && cp.Pass >= 1 {
					passed = true
				}
			}
		}
		if passed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no pass checkpoint journaled before the kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.Wait() //nolint:errcheck // killed

	// Life 2: same directories, fresh port.  Everything must come back
	// and finish: the victim resumed from its checkpoint, the queued two
	// behind it in submission order.
	addr2 := freeAddr(t)
	d2 := startDaemon(t, pdmd, addr2, scratch, jdir)
	st1 := pollDone(t, addr2, id1)
	st2 := pollDone(t, addr2, id2)
	st3 := pollDone(t, addr2, id3)

	if st1.Recovery == nil || !st1.Recovery.WasRunning || st1.Recovery.ResumedFromPass < 1 {
		t.Fatalf("victim recovery = %+v, want resumed from a checkpointed pass", st1.Recovery)
	}
	if st2.Started.Before(st1.Started) || st3.Started.Before(st2.Started) {
		t.Fatalf("FIFO order violated across restart: started %v / %v / %v",
			st1.Started, st2.Started, st3.Started)
	}

	// Bit-identity against the uninterrupted control.
	rep := st1.Report
	if rep == nil {
		t.Fatal("victim has no report")
	}
	if rep.Passes != wantRep.Passes || rep.ReadPasses != wantRep.ReadPasses ||
		rep.WritePasses != wantRep.WritePasses || rep.PaddedN != wantRep.PaddedN ||
		rep.Algorithm != wantRep.Algorithm {
		t.Fatalf("resumed report differs:\ndaemon  %+v\ncontrol %+v", rep, wantRep)
	}
	if normalizeStats(rep.IO) != normalizeStats(wantRep.IO) {
		t.Fatalf("resumed I/O differs:\ndaemon  %+v\ncontrol %+v",
			normalizeStats(rep.IO), normalizeStats(wantRep.IO))
	}
	if got := fetchKeys(t, addr2, id1); !slices.Equal(got, wantKeys) {
		t.Fatal("resumed output differs from the uninterrupted control")
	}
	for _, id := range []int{id2, id3} {
		if keys := fetchKeys(t, addr2, id); !slices.IsSorted(keys) {
			t.Fatalf("recovered job %d output not sorted", id)
		}
	}

	// pdmctl smoke against the restarted daemon: the jobs table carries
	// the resume provenance, and status -watch exits on the done job.
	worker := "http://" + addr2
	out, err := exec.Command(pdmctl, "jobs", "-worker", worker).CombinedOutput()
	if err != nil {
		t.Fatalf("pdmctl jobs: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "resumed from pass") || !strings.Contains(string(out), "victim") {
		t.Fatalf("pdmctl jobs output missing provenance:\n%s", out)
	}
	out, err = exec.Command(pdmctl, "status", "-worker", worker,
		"-id", fmt.Sprint(id1), "-watch").CombinedOutput()
	if err != nil {
		t.Fatalf("pdmctl status: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `"done"`) || !strings.Contains(string(out), "resumed from pass") {
		t.Fatalf("pdmctl status output missing state or provenance:\n%s", out)
	}

	// A journaled daemon exits cleanly on SIGTERM via the drain path.
	if err := d2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pdmd exit after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("pdmd did not exit after SIGTERM")
	}
}
