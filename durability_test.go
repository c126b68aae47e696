package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/pdm"
	"repro/internal/sched"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
	"repro/internal/workload"
)

// A journaled scheduler must make jobs durable across lives: Drain parks a
// running multi-pass sort at its last journaled checkpoint, and the next
// NewScheduler over the same JournalDir and Dir resumes it from that pass —
// with an end state bit-identical to an uninterrupted run — while queued
// jobs re-admit in their original FIFO order.  These tests exercise the
// whole facade path (journaled-descriptor round-trip, manifest arming, resume,
// restart-from-input fallback) in-process; the daemon-level SIGKILL
// variant lives in cmd/pdmd's e2e test.

// durabilityConfig is the shared scheduler shape: one job envelope, so a
// running job is always alone and everything behind it queues in order.
func durabilityConfig(dir, jdir string) SchedulerConfig {
	return SchedulerConfig{
		Memory:     6 * schedEnvelope / 5,
		Workers:    4,
		JobMemory:  schedJobMem,
		Dir:        dir,
		JournalDir: jdir,
		Pipeline:   PipelineConfig{Prefetch: 2, WriteBehind: 2},
	}
}

// durabilitySpecs returns the three-job batch: a latency-slowed three-pass
// sort to interrupt, and two queued jobs behind it.
func durabilitySpecs() []JobSpec {
	return []JobSpec{
		{Workload: &WorkloadSpec{Kind: "perm", N: 16 * schedJobMem, Seed: 11},
			Alg: ThreePassLMM, BlockLatencyUS: 2000,
			KeepKeys: true, Label: "interrupted"},
		{Workload: &WorkloadSpec{Kind: "sortedruns", N: 8 * schedJobMem, Seed: 12},
			Alg: TwoPassExpected, KeepKeys: true, Label: "queued-a"},
		{Workload: &WorkloadSpec{Kind: "uniform", N: 16 * schedJobMem, Seed: 13},
			Alg: ThreePassMesh, KeepKeys: true, Label: "queued-b"},
	}
}

// soloDurabilityRun runs one spec alone on a dedicated machine with the
// scheduler's job geometry: the bit-identity control.
func soloDurabilityRun(t *testing.T, spec JobSpec) ([]int64, *Report) {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Memory:       schedJobMem,
		Pipeline:     PipelineConfig{Prefetch: 2, WriteBehind: 2},
		Workers:      4,
		BlockLatency: time.Duration(spec.BlockLatencyUS) * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys, err := spec.Workload.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Sort(keys, spec.Alg)
	if err != nil {
		t.Fatalf("%s solo: %v", spec.Label, err)
	}
	return keys, rep
}

// submitBatch submits the specs and returns their ids.
func submitBatch(t *testing.T, s *Scheduler, specs []JobSpec) []int {
	t.Helper()
	ids := make([]int, len(specs))
	for i, spec := range specs {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Label, err)
		}
		ids[i] = id
	}
	return ids
}

// awaitCheckpoint polls the journal (read-only, from the side) until the
// job has a checkpoint record with Pass >= 1, then returns that pass.
func awaitCheckpoint(t *testing.T, jdir string, job int) int {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		recs, _, err := journal.Replay(jdir)
		if err == nil {
			for _, rec := range recs {
				if rec.Type != journal.Checkpoint || rec.Job != job {
					continue
				}
				var cp pdm.Checkpoint
				if json.Unmarshal(rec.Data, &cp) == nil && cp.Pass >= 1 {
					return cp.Pass
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never journaled a checkpoint", job)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedulerDrainResumeBitIdentical interrupts a three-pass sort at a
// journaled pass boundary via Drain, restarts the scheduler over the same
// directories, and demands the resumed job's output and deterministic
// report match an uninterrupted control run — with the two queued jobs
// re-admitted behind it in their original order.  A smaller warm-up job of
// the same geometry runs first, so the interrupted job runs, and is
// drained, on the machine the warm-up left idle.
func TestSchedulerDrainResumeBitIdentical(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	specs := durabilitySpecs()
	warm := JobSpec{Workload: &WorkloadSpec{Kind: "uniform", N: 2 * schedJobMem, Seed: 10},
		Alg: ThreePassLMM, BlockLatencyUS: specs[0].BlockLatencyUS, Label: "warm-up"}
	wantKeys, wantRep := soloDurabilityRun(t, specs[0])

	// Life 1: submit the warm-up and all three, wait for the first pass
	// boundary of the interrupted job to hit the journal, then drain
	// cleanly.
	s1, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	warmID := submitBatch(t, s1, []JobSpec{warm})[0]
	ids := submitBatch(t, s1, specs)
	awaitCheckpoint(t, jdir, ids[0])
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s1.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := s1.Status(warmID); st.State != JobDone {
		t.Fatalf("warm-up job state %q, error %q", st.State, st.Error)
	}
	if st := s1.Stats(); st.Reused != 1 {
		t.Fatalf("%d jobs took an idle machine, want the interrupted one", st.Reused)
	}
	st, ok := s1.Status(ids[0])
	if !ok || st.State != JobSuspended {
		t.Fatalf("after drain: job %d state %q, want suspended", ids[0], st.State)
	}
	for _, id := range ids[1:] {
		if st, _ := s1.Status(id); st.State != JobQueued {
			t.Fatalf("after drain: job %d state %q, want queued", id, st.State)
		}
	}

	// Life 2: the same directories.  Recovery replays the journal,
	// re-admits everything, and resumes the suspended sort mid-flight.
	s2, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	final := make([]JobStatus, len(ids))
	for i, id := range ids {
		fst, err := s2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %d: %v", id, err)
		}
		if fst.State != JobDone {
			t.Fatalf("job %d state %q, error %q", id, fst.State, fst.Error)
		}
		final[i] = fst
	}

	// Resume provenance: the interrupted job picked up from a checkpointed
	// pass, and only it carries recovery info from a running state.
	rec := final[0].Recovery
	if rec == nil || !rec.WasRunning || rec.ResumedFromPass < 1 || rec.RestartedFromInput {
		t.Fatalf("interrupted job recovery = %+v, want resumed from pass >= 1", rec)
	}
	for _, fst := range final[1:] {
		if fst.Recovery == nil || fst.Recovery.WasRunning {
			t.Fatalf("queued job %d recovery = %+v, want recovered but not running", fst.ID, fst.Recovery)
		}
	}

	// FIFO order: one envelope means strictly serial execution, so start
	// times must follow the original submission order.
	for i := 1; i < len(final); i++ {
		if final[i].Started.Before(final[i-1].Started) {
			t.Fatalf("job %d started %v before its FIFO predecessor's %v",
				final[i].ID, final[i].Started, final[i-1].Started)
		}
	}

	// Bit-identity: the resumed run's output and deterministic report
	// match the uninterrupted control exactly.
	got, err := s2.SortedKeys(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantKeys) {
		t.Fatal("resumed output differs from the uninterrupted control")
	}
	rep := final[0].Report
	if rep.Passes != wantRep.Passes || rep.ReadPasses != wantRep.ReadPasses ||
		rep.WritePasses != wantRep.WritePasses || rep.PaddedN != wantRep.PaddedN ||
		rep.Algorithm != wantRep.Algorithm || rep.FellBack != wantRep.FellBack {
		t.Fatalf("resumed report differs:\nresumed %+v\ncontrol %+v", rep, wantRep)
	}
	if normalizeStats(rep.IO) != normalizeStats(wantRep.IO) {
		t.Fatalf("resumed I/O stats differ:\nresumed %+v\ncontrol %+v",
			normalizeStats(rep.IO), normalizeStats(wantRep.IO))
	}

	// The queued jobs still sort correctly after their journal round-trip.
	for i, id := range ids[1:] {
		keys, err := s2.SortedKeys(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(keys) || len(keys) != specs[i+1].Workload.N {
			t.Fatalf("recovered job %d output wrong (%d keys)", id, len(keys))
		}
	}

	stats := s2.Stats()
	if stats.Recovered != 3 || stats.JobsResumed != 1 || stats.JobsRestarted != 0 {
		t.Fatalf("recovery stats: recovered %d, resumed %d, restarted %d",
			stats.Recovered, stats.JobsResumed, stats.JobsRestarted)
	}
	if stats.JournalAppends == 0 || stats.JournalReplayed == 0 || stats.JournalFsyncErrors != 0 {
		t.Fatalf("journal metrics: %+v", stats)
	}
	if h := s2.Health(); !h.Durable || h.Recovered != 3 {
		t.Fatalf("health after recovery: %+v", h)
	}
}

// TestSchedulerRecoveryRestartFromInput deletes a suspended job's scratch
// between lives: the manifest no longer validates against the disks, so
// the rerun must fall back to a clean restart from the input and still
// produce the correct result, reported as RestartedFromInput.
func TestSchedulerRecoveryRestartFromInput(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	specs := durabilitySpecs()[:1]
	wantKeys, _ := soloDurabilityRun(t, specs[0])

	s1, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBatch(t, s1, specs)
	awaitCheckpoint(t, jdir, ids[0])
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s1.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Lose the surviving scratch: the journal still has the manifest, but
	// the files it points at are gone.
	scratch := filepath.Join(dir, "job-0001")
	if _, err := os.Stat(scratch); err != nil {
		t.Fatalf("suspended scratch missing before the test even deleted it: %v", err)
	}
	if err := os.RemoveAll(scratch); err != nil {
		t.Fatal(err)
	}

	s2, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fst, err := s2.Wait(context.Background(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if fst.State != JobDone {
		t.Fatalf("job state %q, error %q", fst.State, fst.Error)
	}
	rec := fst.Recovery
	if rec == nil || !rec.WasRunning || !rec.RestartedFromInput || rec.ResumedFromPass != 0 {
		t.Fatalf("recovery = %+v, want restarted from input", rec)
	}
	got, err := s2.SortedKeys(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantKeys) {
		t.Fatal("restarted output differs from the control")
	}
	if stats := s2.Stats(); stats.JobsRestarted != 1 || stats.JobsResumed != 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
}

// TestJournalRecordRoundTripsEveryField is the journal leg of the
// descriptor round trip: a submission record built from a descriptor with
// every field set goes through the real engine — journal append, drain,
// a second life's replay — and must decode back to the same descriptor,
// so a per-job option cannot be lost between a submission and its
// recovery.  The stored algorithm is the resolved one; the replay shim
// resets it only on the shapes a live caller could not have submitted.
func TestJournalRecordRoundTripsEveryField(t *testing.T) {
	full := wiretest.FullJobSpec()
	plain := full // no scenario, no universe: the shim leaves its algorithm alone
	plain.Scenario, plain.Universe = "", 0
	want := map[string]JobSpec{"full": full, "plain": plain}

	jdir := t.TempDir()
	life := func() *sched.Scheduler {
		jr, err := journal.Open(jdir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sched.New(sched.Config{MemKeys: 1, Journal: jr})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := life()
	// The blocker holds the whole budget until the drain stops it at a
	// checkpoint, so the two descriptors stay queued in the journal.
	running := make(chan struct{})
	if _, err := eng.Submit(sched.Request{Label: "blocker", MemKeys: 1,
		Run: func(ctx context.Context, env sched.Env) error {
			close(running)
			for {
				if err := env.Checkpoint([]byte(`{}`)); err != nil {
					return err
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(time.Millisecond):
				}
			}
		}}); err != nil {
		t.Fatal(err)
	}
	for label, spec := range want {
		raw, input, err := journalRecord(spec, SevenPass)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"keys"`)) || bytes.Contains(raw, []byte(`"payloads"`)) || input == nil {
			t.Fatalf("%s: the record still carries the inline input: %s", label, raw)
		}
		if _, err := eng.Submit(sched.Request{Label: label, MemKeys: 1, Spec: raw, Input: input,
			Run: func(context.Context, sched.Env) error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	eng = life()
	defer eng.Close()
	seen := 0
	for _, rec := range eng.Recovered() {
		spec, ok := want[rec.Label]
		if !ok {
			continue
		}
		seen++
		spec.Alg = SevenPass
		if rec.Label == "full" {
			spec.Alg = Auto // a scenario job's fallback sort is re-derived
		}
		got, err := recoveredJobSpec(rec)
		if err != nil {
			t.Fatalf("%s: %v", rec.Label, err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: the journal lost fields:\n got %+v\nwant %+v", rec.Label, got, spec)
		}
	}
	if seen != len(want) {
		t.Fatalf("recovered %d of %d queued descriptors", seen, len(want))
	}
}

// TestRecoveredSpecReadsParentJournals pins replay of submission records
// as the previous layout wrote them: the resolved algorithm under "alg",
// the latency under "blockLatencyUS", a radix job as a bare universe, and
// a scenario job carrying its resolved fallback sort, a record from when
// the descriptor still had a "kernel" selector — each must decode into a
// descriptor Validate accepts, meaning the same job.
func TestRecoveredSpecReadsParentJournals(t *testing.T) {
	cases := []struct {
		record string
		alg    Algorithm
	}{
		{`{"keys":[3,1,2],"keepKeys":true,"label":"a","alg":"lmm3","blockLatencyUS":2000}`, ThreePassLMM},
		{`{"keys":[3,1,2],"keepKeys":true,"kernel":"radix","alg":"lmm3","blockLatencyUS":2000}`, ThreePassLMM},
		{`{"workload":{"kind":"uniform","n":9000,"seed":1},"universe":1048576,"blockLatencyUS":2000}`, core.AlgRadix},
		{`{"workload":{"kind":"perm","n":4096,"seed":1},"scenario":"topk","topK":5,"alg":"exp2","blockLatencyUS":2000}`, Auto},
		{`{"workload":{"kind":"perm","n":64,"seed":1},"pipeline":{"Prefetch":1,"WriteBehind":3},"alg":"one","blockLatencyUS":2000}`, MemOnePass},
	}
	for _, tc := range cases {
		spec, err := recoveredSpec([]byte(tc.record))
		if err != nil {
			t.Fatalf("%s: %v", tc.record, err)
		}
		if spec.Alg != tc.alg || spec.BlockLatencyUS != 2000 {
			t.Errorf("%s: decoded alg %q, latency %dus", tc.record, string(spec.Alg), spec.BlockLatencyUS)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: replay produced a descriptor Validate rejects: %v", tc.record, err)
		}
	}
	if spec, _ := recoveredSpec([]byte(cases[4].record)); spec.Pipeline == nil || spec.Pipeline.WriteBehind != 3 {
		t.Errorf("pipeline override lost: %+v", spec.Pipeline)
	}
	// The "kernel" record also reruns: the selector is ignored, the job
	// resolves and sorts like any other.
	spec, _ := recoveredSpec([]byte(cases[1].record))
	s, err := NewScheduler(SchedulerConfig{Memory: 1 << 16, JobMemory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(context.Background(), id); err != nil || st.State != JobDone {
		t.Fatalf("rerun: state %q, error %q, %v", st.State, st.Error, err)
	}
	if got, err := s.SortedKeys(id); err != nil || !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("rerun sorted %v, %v", got, err)
	}
}

// inlineDurabilitySpecs is durabilitySpecs with the input shipped inline —
// the shape whose keys and payloads the journal keeps as page files beside
// the log: a latency-slowed three-pass sort to interrupt, a keys job and a
// records job queued behind it.
func inlineDurabilitySpecs() []JobSpec {
	recKeys := workload.ZipfSkewed(8*schedJobMem, 1.3, 300, 23)
	return []JobSpec{
		{Keys: workload.Perm(16*schedJobMem, 21), Alg: ThreePassLMM, BlockLatencyUS: 2000,
			KeepKeys: true, Label: "interrupted"},
		{Keys: workload.Uniform(16*schedJobMem-77, -1<<40, 1<<40, 22), Alg: ThreePassMesh,
			KeepKeys: true, Label: "queued-keys"},
		{Keys: recKeys, Payloads: (&PayloadSpec{MinBytes: 0, MaxBytes: 24}).Materialize(len(recKeys), 23),
			Alg: ThreePassLMM, KeepKeys: true, Label: "queued-records"},
	}
}

// soloInlineRun sorts a private copy of an inline spec alone on a dedicated
// machine with the scheduler's job geometry: the bit-identity control.
func soloInlineRun(t *testing.T, spec JobSpec) ([]int64, [][]byte, *Report) {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Memory:       schedJobMem,
		Pipeline:     PipelineConfig{Prefetch: 2, WriteBehind: 2},
		Workers:      4,
		BlockLatency: time.Duration(spec.BlockLatencyUS) * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys, payloads := slices.Clone(spec.Keys), slices.Clone(spec.Payloads)
	var rep *Report
	if payloads != nil {
		rep, err = m.SortRecords(keys, payloads, spec.Alg)
	} else {
		rep, err = m.Sort(keys, spec.Alg)
	}
	if err != nil {
		t.Fatalf("%s solo: %v", spec.Label, err)
	}
	return keys, payloads, rep
}

// journalDirNames lists the journal directory split into the log's own
// files (wal-*, snap-*) and everything else.
func journalDirNames(t *testing.T, jdir string) (log, other []string) {
	t.Helper()
	entries, err := os.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") || strings.HasPrefix(e.Name(), "snap-") {
			log = append(log, e.Name())
		} else {
			other = append(other, e.Name())
		}
	}
	return log, other
}

// drainAtCheckpoint waits for the job's first journaled pass boundary and
// drains the scheduler there.
func drainAtCheckpoint(t *testing.T, s *Scheduler, jdir string, id int) {
	t.Helper()
	awaitCheckpoint(t, jdir, id)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSchedulerDrainResumeInlineInputs is the drain/resume contract for
// jobs whose input arrived inline: the journal holds a reference per job
// and the keys (and payloads) once, as a page file beside the log.  A drain
// with one such job running and two queued keeps all three files; the next
// life reads them back, finishes all three bit-identical to uninterrupted
// runs, and leaves the journal directory holding nothing but the log.
func TestSchedulerDrainResumeInlineInputs(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	specs := inlineDurabilitySpecs()
	type control struct {
		keys     []int64
		payloads [][]byte
		rep      *Report
	}
	want := make([]control, len(specs))
	inputBytes := int64(0)
	for i, spec := range specs {
		want[i].keys, want[i].payloads, want[i].rep = soloInlineRun(t, spec)
		inputBytes += int64(wire.Page{Keys: spec.Keys, Payloads: spec.Payloads}.BinaryLen())
	}

	s1, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBatch(t, s1, specs)
	if st := s1.Stats(); st.JournalInputBytes != inputBytes || st.JournalBytes > 8<<10 {
		t.Fatalf("journal gauges after three inline submits: %d input bytes (want %d), %d log bytes (want records only)",
			st.JournalInputBytes, inputBytes, st.JournalBytes)
	}
	drainAtCheckpoint(t, s1, jdir, ids[0])
	if _, other := journalDirNames(t, jdir); len(other) != 3 {
		t.Fatalf("the drain kept %v, want the three input files", other)
	}

	s2, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, id := range ids {
		fst, err := s2.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if fst.State != JobDone {
			t.Fatalf("job %d state %q, error %q", id, fst.State, fst.Error)
		}
		var gotKeys []int64
		var gotPayloads [][]byte
		if want[i].payloads != nil {
			gotKeys, gotPayloads, err = s2.SortedRecords(id)
		} else {
			gotKeys, err = s2.SortedKeys(id)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotKeys, want[i].keys) || !reflect.DeepEqual(gotPayloads, want[i].payloads) {
			t.Fatalf("%s: recovered output differs from the uninterrupted control", specs[i].Label)
		}
		rep, ctl := fst.Report, want[i].rep
		if rep.Passes != ctl.Passes || rep.PaddedN != ctl.PaddedN || rep.Algorithm != ctl.Algorithm ||
			normalizeStats(rep.IO) != normalizeStats(ctl.IO) {
			t.Fatalf("%s: recovered report differs:\nrecovered %+v\ncontrol   %+v", specs[i].Label, rep, ctl)
		}
	}
	if rec := s2.Stats(); rec.Recovered != 3 || rec.JobsResumed != 1 || rec.JournalInputBytes != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	if log, other := journalDirNames(t, jdir); len(other) != 0 || len(log) == 0 {
		t.Fatalf("journal directory after all three finished: log %v, other %v", log, other)
	}
}

// TestSchedulerRecoveryRestartDamagedInput damages queued jobs' input files
// between lives — one removed, one a byte short, one with a single bit
// flipped.  Each must be retired Failed with the file named (never run on
// wrong input), the healthy jobs around them must recover and finish, and
// the journal must replay cleanly for a third life with nothing left live.
func TestSchedulerRecoveryRestartDamagedInput(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	specs := inlineDurabilitySpecs()
	for _, label := range []string{"missing", "short", "flipped"} {
		specs = append(specs, JobSpec{Keys: workload.Perm(4*schedJobMem, 31), KeepKeys: true, Label: label})
	}
	specs = append(specs, JobSpec{Keys: workload.Perm(4*schedJobMem, 32), KeepKeys: true, Label: "after"})

	s1, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBatch(t, s1, specs)
	drainAtCheckpoint(t, s1, jdir, ids[0])
	path := func(i int) string { return filepath.Join(jdir, fmt.Sprintf("input-%04d.page", ids[i])) }
	if err := os.Remove(path(3)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path(4), st.Size()-1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path(5))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(path(5), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, 6} {
		fst, err := s2.Wait(context.Background(), ids[i])
		if err != nil || fst.State != JobDone {
			t.Fatalf("healthy job %q: state %q, error %q, %v", specs[i].Label, fst.State, fst.Error, err)
		}
	}
	for _, i := range []int{3, 4, 5} {
		if _, ok := s2.Status(ids[i]); ok {
			t.Errorf("job %q ran on a damaged input file", specs[i].Label)
		}
	}
	if st := s2.Stats(); st.Recovered != 7 || st.Failed != 3 || st.Completed != 4 {
		t.Fatalf("life-2 stats: %+v", st)
	}
	s2.Close()

	recs, info, err := journal.Replay(jdir)
	if err != nil || info.ReplayErrors != 0 {
		t.Fatalf("journal replay after the retirements: %+v, %v", info, err)
	}
	retired := map[int]string{}
	for _, rec := range recs {
		if rec.Type == journal.Terminal {
			retired[rec.Job] = string(rec.Data)
		}
	}
	for _, i := range []int{3, 4, 5} {
		if got := retired[ids[i]]; !strings.Contains(got, `"failed"`) || !strings.Contains(got, filepath.Base(path(i))) {
			t.Errorf("job %q terminal record %s, want failed and naming %s", specs[i].Label, got, filepath.Base(path(i)))
		}
	}
	s3, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Recovered != 0 || st.JournalReplayErrors != 0 {
		t.Fatalf("third life: %+v", st)
	}
	if _, other := journalDirNames(t, jdir); len(other) != 0 {
		t.Fatalf("journal directory still holds %v", other)
	}
}

// TestJournaledSchedulerAcceptsLargeInline is the regression test for the
// size limit the journal used to put on submissions: the whole inline input
// rode in the Submitted record, which must fit one journal frame, so a
// journaled scheduler refused ("record too large") a 2Mi-key job an
// unjournaled one accepts.  The job is queued behind a blocker, drained,
// and finished by a second life from its input file.
func TestJournaledSchedulerAcceptsLargeInline(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	const bigMem = 1 << 16
	cfg := durabilityConfig(dir, jdir)
	cfg.JobMemory = bigMem
	pcfg, _, err := resolveConfig(MachineConfig{Memory: bigMem, Dir: dir, Pipeline: cfg.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memory = pcfg.ArenaCapacity() // one big envelope: the big job queues behind the blocker
	blocker := durabilitySpecs()[0]
	blocker.Memory = schedJobMem
	keys := workload.Uniform(2<<20, -1<<40, 1<<40, 41)
	want := slices.Clone(keys)
	slices.Sort(want)

	s1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBatch(t, s1, []JobSpec{blocker, {Keys: keys, KeepKeys: true, Label: "big"}})
	drainAtCheckpoint(t, s1, jdir, ids[0])
	if st, _ := s1.Status(ids[1]); st.State != JobQueued {
		t.Fatalf("big job after drain: %q, want queued", st.State)
	}

	s2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fst, err := s2.Wait(context.Background(), ids[1])
	if err != nil || fst.State != JobDone {
		t.Fatalf("big job: state %q, error %q, %v", fst.State, fst.Error, err)
	}
	got, err := s2.SortedKeys(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("the recovered 2Mi-key job's output is not slices.Sort of its input")
	}
}
