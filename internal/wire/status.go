package wire

import (
	"time"

	"repro/internal/core"
	"repro/internal/pdm"
)

// JobState is a job's lifecycle position as the service reports it.
type JobState string

// The job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobSuspended marks a job Drain stopped at a pass checkpoint; its
	// scratch and journal records survive for the next life to resume.
	JobSuspended JobState = "suspended"
)

// RecoveryInfo records a job's provenance when it came out of the
// journal instead of a live submission.
type RecoveryInfo struct {
	// RecoveredAt is when this scheduler life replayed the job.
	RecoveredAt time.Time `json:"recoveredAt"`
	// WasRunning reports the job had been admitted before the previous
	// life ended.
	WasRunning bool `json:"wasRunning"`
	// ResumedFromPass is the checkpointed pass the rerun actually resumed
	// from (0 until the rerun consumes the manifest, or when it never
	// does).
	ResumedFromPass int `json:"resumedFromPass,omitempty"`
	// RestartedFromInput reports that a formerly-running job could not use
	// its manifest — missing, invalid, or pointing at unusable scratch —
	// and was re-sorted from the input instead.
	RestartedFromInput bool `json:"restartedFromInput,omitempty"`
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID    int      `json:"id"`
	Label string   `json:"label,omitempty"`
	State JobState `json:"state"`
	// Algorithm is the paper's name for the algorithm the job runs.
	Algorithm string `json:"algorithm"`
	// Scenario names the query-scenario kind for scenario jobs ("" for
	// sorts); Algorithm then names the sort the job would fall back to.
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n"`
	Error    string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// Report is the final sorting report (Done jobs only).
	Report *Report `json:"report,omitempty"`

	// MemReserved and DiskReserved are the admitted envelope;
	// DiskFootprint is the high-water scratch the job actually touched,
	// and ArenaLeak the job machine's arena in-use count at exit — always
	// zero, including for canceled jobs, or the envelope accounting is
	// broken.
	MemReserved   int `json:"memReserved"`
	DiskReserved  int `json:"diskReserved"`
	DiskFootprint int `json:"diskFootprint,omitempty"`
	ArenaLeak     int `json:"arenaLeak,omitempty"`

	// CleanupError reports a scratch-directory removal failure at job
	// teardown: the envelope was released but the directory leaked.
	CleanupError string `json:"cleanupError,omitempty"`

	// Planned is the cost model's prediction for the algorithm the job
	// runs, recorded when the job starts; MeasuredSeconds is the sort's
	// actual wall time and PredictionError the signed relative drift
	// (measured − predicted)/predicted, both set when the job completes.
	// Together they make calibration drift visible per job (the bench/
	// workloads record the same drift as plan.prediction_rel_error).
	Planned         *PlannedJob `json:"planned,omitempty"`
	MeasuredSeconds float64     `json:"measuredSeconds,omitempty"`
	PredictionError float64     `json:"predictionError,omitempty"`

	// Recovery is set on jobs this scheduler life replayed from the
	// journal: whether they had been running, and whether the rerun
	// resumed from a checkpointed pass or restarted from the input.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// PlannedJob summarizes the planner's view of a job: the algorithm it
// runs, the predicted wall seconds and read passes, and whether the
// pricing came from a measured probe (vs the analytic default).
type PlannedJob struct {
	Algorithm        string  `json:"algorithm"`
	PredictedSeconds float64 `json:"predictedSeconds"`
	PredictedPasses  float64 `json:"predictedPasses"`
	Probed           bool    `json:"probed"`
}

// Report describes one sorting run.  It serializes under its Go field
// names; Algorithm's text form is the short name.
type Report struct {
	// Algorithm is the algorithm that produced the result (the concrete
	// choice when Auto was requested).
	Algorithm core.Alg
	// N is the number of user keys sorted (before padding).
	N int
	// Passes, ReadPasses and WritePasses are measured in the paper's
	// currency over the padded length.
	Passes      float64
	ReadPasses  float64
	WritePasses float64
	// FellBack reports that a probabilistic algorithm detected a cleanup
	// overflow and re-sorted with its deterministic fallback.
	FellBack bool
	// IO is the raw I/O accounting.
	IO pdm.Stats
	// PaddedN is the on-disk length after padding to the algorithm's
	// geometry (sentinel keys are stripped from the returned data).
	PaddedN int
	// Pipeline observability (all zero when the machine runs synchronous
	// I/O).  PrefetchHits counts streamed read chunks whose data had
	// already landed when the algorithm asked for them, PrefetchStalls
	// those it had to wait for; WriteStalls counts streamed writes that
	// waited for staging.  Overlap = hits/(hits+stalls) — the fraction of
	// read latency the pipeline hid (1 when nothing streamed).
	PrefetchHits   int64
	PrefetchStalls int64
	WriteStalls    int64
	Overlap        float64
	// Compute observability (all zero/1 when the machine runs a single
	// worker or the inputs are too small to parallelize).  Workers is the
	// machine's resolved worker-pool width; ComputeSeconds the wall time
	// spent inside parallel compute sections; WorkerUtilization the busy
	// fraction of the pool over those sections.  Like the pipeline
	// counters, these are scheduling-dependent and excluded from the
	// bit-identical determinism guarantee.
	Workers           int
	ComputeSeconds    float64
	WorkerUtilization float64
	// Scenario names the query scenario that produced this report (one of
	// internal/plan's Kind constants; empty for plain sorts) and
	// ScenarioRoute the strategy it ran (one of its Route constants:
	// RouteFullSort when the planner priced the scenario out or a sampling
	// miss fell back — the FellBack flag distinguishes the two).
	Scenario      string
	ScenarioRoute string
	// Records observability (SortRecords and SortPairs only; zero for the
	// key-only entry points).  KeyRounds counts the charged key+index digit
	// rounds on the deepest path of the record sort: 1, plus one per level
	// of digit-tie runs longer than M that needed re-sorting (at most
	// ⌈64/keyBits⌉).  Their passes are folded into Passes, rescaled to
	// PaddedN, and their I/O into IO.  PayloadWords is the payload
	// volume, in 8-byte words, the external permutation moved; and
	// PermutePasses prices that movement in the paper's currency — charged
	// parallel steps times the stripe width over the padded payload store.
	// The permutation's raw I/O is folded into IO; Passes/ReadPasses/
	// WritePasses remain the key sort's counts.
	KeyRounds     int
	PayloadWords  int
	PermutePasses float64
}

// Observe fills the report's overlap and compute counters from the
// measured I/O delta of a machine whose pool is workers wide.
func (r *Report) Observe(io pdm.Stats, workers int) {
	r.PrefetchHits = io.PrefetchHits
	r.PrefetchStalls = io.PrefetchStalls
	r.WriteStalls = io.WriteBehindStalls
	r.Overlap = io.Overlap()
	r.Workers = workers
	r.ComputeSeconds = io.ComputeSeconds()
	r.WorkerUtilization = io.WorkerUtilization(workers)
}

// Health is the cheap liveness snapshot pdmd serves as GET /healthz:
// alive, plus the resolved default job geometry a distributed-sort
// coordinator needs to plan shards for this node before submitting any.
type Health struct {
	Status string `json:"status"`
	// JobMemory, BlockSize, and Disks are the geometry a default job runs
	// with (a JobSpec may override them); Alpha is the machine confidence
	// parameter and Workers the global compute width.
	JobMemory int     `json:"jobMemory"`
	BlockSize int     `json:"blockSize"`
	Disks     int     `json:"disks"`
	Alpha     float64 `json:"alpha"`
	Workers   int     `json:"workers"`
	// Backend is the default disk backend ("" on in-memory schedulers);
	// FileBacked reports whether jobs spill to real files.
	Backend    string `json:"backend,omitempty"`
	FileBacked bool   `json:"fileBacked"`
	// Queued and Running give the coordinator a load hint.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Durable reports whether a journal is attached; Recovered and
	// Suspended are this life's recovery counts (jobs replayed live at
	// startup, and jobs parked at a checkpoint by a drain).
	Durable   bool `json:"durable,omitempty"`
	Recovered int  `json:"recovered,omitempty"`
	Suspended int  `json:"suspended,omitempty"`
}
