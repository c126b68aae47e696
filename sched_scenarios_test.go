package repro

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"
)

// Scenario jobs ride the same scheduler machinery as sorts — envelope
// admission, per-job machines, journaling — but dispatch to the query
// scenarios and retain typed results.  These tests pin the submit surface,
// the results, the planner prediction recorded per job, and the journal
// round-trip of the scenario JobSpec fields.

// scenarioJobOracle generates a workload spec's keys exactly as the
// scheduler will.
func scenarioJobOracle(t *testing.T, w *WorkloadSpec) []int64 {
	t.Helper()
	keys, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestSchedulerScenarioJobs(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{
		Memory:    11000,
		Workers:   4,
		JobMemory: schedJobMem,
		Pipeline:  PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 20000
	gkeys := scenarioJobOracle(t, &WorkloadSpec{Kind: "fewdistinct", N: n, Distinct: 300, Seed: 51})
	payloads := scenarioJobOracle(t, &WorkloadSpec{Kind: "uniform", N: n, Seed: 52})
	batch := scenarioJobOracle(t, &WorkloadSpec{Kind: "uniform", N: 1024, Seed: 53})

	specs := map[string]JobSpec{
		"topk": {Scenario: "topk", TopK: 64, Label: "topk",
			Workload: &WorkloadSpec{Kind: "uniform", N: n, Seed: 54}},
		"quantile": {Scenario: "quantile", Rank: n / 2, Label: "quantile",
			Workload: &WorkloadSpec{Kind: "uniform", N: n, Seed: 55}},
		"groupby": {Scenario: "groupby", Groups: 300, Label: "groupby",
			Keys: append([]int64(nil), gkeys...), GroupPayloads: payloads},
		"ingest": {Scenario: "ingest", IngestBatch: batch, KeepKeys: true, Label: "ingest",
			Workload: &WorkloadSpec{Kind: "sorted", N: n}},
	}
	ids := map[string]int{}
	for kind, spec := range specs {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", kind, err)
		}
		ids[kind] = id
	}
	for kind, id := range ids {
		st, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: wait: %v", kind, err)
		}
		if st.State != JobDone {
			t.Fatalf("%s: state %s, error %q", kind, st.State, st.Error)
		}
		if st.Scenario != kind {
			t.Fatalf("%s: JobStatus.Scenario = %q", kind, st.Scenario)
		}
		if st.Planned == nil || !strings.HasPrefix(st.Planned.Algorithm, kind+"/") {
			t.Fatalf("%s: Planned = %+v, want %s/<route>", kind, st.Planned, kind)
		}
		if st.Report == nil || st.Report.Scenario != kind {
			t.Fatalf("%s: report = %+v", kind, st.Report)
		}
		if st.ArenaLeak != 0 {
			t.Fatalf("%s: leaked %d arena keys", kind, st.ArenaLeak)
		}
		res, err := s.ScenarioResult(id)
		if err != nil {
			t.Fatalf("%s: result: %v", kind, err)
		}
		if res.Kind != kind {
			t.Fatalf("%s: result kind %q", kind, res.Kind)
		}
		switch kind {
		case "topk":
			want := scenarioJobOracle(t, specs[kind].Workload)
			slices.Sort(want)
			if !slices.Equal(res.Keys, want[:64]) {
				t.Fatal("topk result != sort-then-head")
			}
		case "quantile":
			want := scenarioJobOracle(t, specs[kind].Workload)
			slices.Sort(want)
			if res.Value == nil || *res.Value != want[n/2-1] {
				t.Fatalf("quantile result %v, want %d", res.Value, want[n/2-1])
			}
		case "groupby":
			want := groupOracle(gkeys, payloads)
			if !slices.Equal(flattenAggs(res.Groups), flattenAggs(want)) {
				t.Fatal("groupby result != map oracle")
			}
		case "ingest":
			dataset := scenarioJobOracle(t, specs[kind].Workload)
			want := append(append([]int64(nil), dataset...), batch...)
			slices.Sort(want)
			if !slices.Equal(res.Keys, want) {
				t.Fatal("ingest result != re-sort oracle")
			}
		}
	}
	if st := s.Stats(); st.MemInUse != 0 || st.DiskInUse != 0 {
		t.Fatalf("envelopes leaked after drain: %+v", st)
	}
}

func TestSchedulerExplainScenario(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{Memory: 8000, JobMemory: schedJobMem})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.ExplainScenario(JobSpec{Scenario: "topk", TopK: 64,
		Workload: &WorkloadSpec{Kind: "uniform", N: 65536, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible || !p.UseScenario || p.Route != "filter" {
		t.Fatalf("topk plan %+v, want feasible filter route", p)
	}
	if p.ReadPasses >= p.FullSortReadPasses {
		t.Fatalf("scenario %.3f read passes not under full sort %.3f", p.ReadPasses, p.FullSortReadPasses)
	}
	if _, err := s.ExplainScenario(JobSpec{Workload: &WorkloadSpec{Kind: "uniform", N: 1024}}); err == nil {
		t.Fatal("ExplainScenario accepted a non-scenario spec")
	}
}

// TestSchedulerScenarioJournalRoundTrip queues a scenario job behind a
// latency-slowed sort in a journaled scheduler, drains, and reopens: the
// scenario JobSpec fields must survive the journal round-trip and the
// job must complete with the oracle result in the next life.
func TestSchedulerScenarioJournalRoundTrip(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	const n = 16 * schedJobMem
	batch := scenarioJobOracle(t, &WorkloadSpec{Kind: "uniform", N: 512, Seed: 61})

	s1, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBatch(t, s1, []JobSpec{
		{Workload: &WorkloadSpec{Kind: "perm", N: n, Seed: 62},
			Alg: ThreePassLMM, BlockLatencyUS: 2000, Label: "blocker"},
		{Scenario: "topk", TopK: 32, Label: "queued-topk",
			Workload: &WorkloadSpec{Kind: "uniform", N: n, Seed: 63}},
		{Scenario: "ingest", IngestBatch: batch, KeepKeys: true, Label: "queued-ingest",
			Workload: &WorkloadSpec{Kind: "sorted", N: n}},
	})
	awaitCheckpoint(t, jdir, ids[0])
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s1.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids[1:] {
		if st, _ := s1.Status(id); st.State != JobQueued {
			t.Fatalf("after drain: job %d state %q, want queued", id, st.State)
		}
	}

	s2, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range ids {
		st, err := s2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %d: %v", id, err)
		}
		if st.State != JobDone {
			t.Fatalf("job %d state %q, error %q", id, st.State, st.Error)
		}
	}

	topk := scenarioJobOracle(t, &WorkloadSpec{Kind: "uniform", N: n, Seed: 63})
	slices.Sort(topk)
	res, err := s2.ScenarioResult(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Keys, topk[:32]) {
		t.Fatal("recovered topk job result != oracle")
	}

	dataset := scenarioJobOracle(t, &WorkloadSpec{Kind: "sorted", N: n})
	want := append(append([]int64(nil), dataset...), batch...)
	slices.Sort(want)
	res, err = s2.ScenarioResult(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Keys, want) {
		t.Fatal("recovered ingest job result != oracle")
	}
}
