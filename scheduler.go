package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/records"
	"repro/internal/sched"
	"repro/internal/wire"
)

// Scheduler sentinel errors, re-exported from the engine so service
// callers can classify rejections without reaching into internal/.
var (
	// ErrQueueFull is Submit's backpressure signal.
	ErrQueueFull = sched.ErrQueueFull
	// ErrSchedulerClosed is returned by Submit after Close.
	ErrSchedulerClosed = sched.ErrClosed
	// ErrJobTooLarge marks a job whose envelope can never fit the budget.
	ErrJobTooLarge = sched.ErrTooLarge
	// ErrDraining is what a job's checkpoint sink returns once Drain has
	// been called: the job stops at that pass boundary and is suspended
	// for the next scheduler life to resume.
	ErrDraining = sched.ErrDraining
)

// SchedulerConfig sizes a Scheduler: the global budgets every concurrent
// sort job is admitted against, and the per-job defaults.
type SchedulerConfig struct {
	// Memory is the global internal-memory budget in keys.  Every running
	// job's whole arena capacity (its machine's M times the slack, plus
	// staging) is carved from this ledger, so the sum over concurrent jobs
	// never exceeds it.  Required.
	Memory int
	// DiskBudget is the global scratch budget in keys; zero selects
	// 64·Memory.
	DiskBudget int
	// Workers is the global compute budget: one par limiter shared by
	// every job's worker pool.  Zero selects GOMAXPROCS.
	Workers int
	// JobMemory is the default per-job internal memory M in keys (a
	// perfect square); zero selects 4096.  A JobSpec may override it.
	JobMemory int
	// Dir, when non-empty, backs each job's disks with real files under
	// Dir/job-NNNN (created at admission, removed when the job finishes);
	// otherwise jobs run on in-memory disks.
	Dir string
	// Backend is the default disk backend for file-backed jobs: BackendFile
	// (zero value) or BackendMmap.  Requires Dir; a JobSpec may override it
	// per job.
	Backend string
	// MaxQueue bounds the admission queue; zero selects 1024.
	MaxQueue int
	// Pipeline is the default per-job streaming depth.
	Pipeline PipelineConfig
	// JournalDir, when non-empty, makes jobs durable: every submission,
	// admission, pass checkpoint, and terminal state is fsynced to an
	// append-only log there, and NewScheduler replays it — re-admitting
	// queued jobs in their original order and resuming interrupted jobs
	// from their last completed pass (falling back to a restart from the
	// input when the surviving scratch does not validate).
	JournalDir string
}

// journalCompactBytes triggers a compacting journal snapshot once the log
// grows past this size, so the log stays proportional to the live job set.
const journalCompactBytes = 4 << 20

// The job descriptor and the status shapes are declared once, in
// internal/wire, and re-exported here under their public names.
type (
	// JobSpec describes one job — a sort or a query scenario: the value
	// Submit takes, the POST /jobs body, and (see journalRecord) the journal's
	// submission record.  JobSpec.Validate holds the cross-field rules.
	JobSpec = wire.JobSpec
	// WorkloadSpec asks the service to generate a job's input instead of
	// shipping keys inline, naming a generator from the workload suite.
	WorkloadSpec = wire.WorkloadSpec
	// PayloadSpec describes generated per-record payloads.
	PayloadSpec = wire.PayloadSpec
	// JobState is a job's lifecycle position as the service reports it.
	JobState = wire.JobState
	// JobStatus is a point-in-time snapshot of one job.
	JobStatus = wire.JobStatus
	// RecoveryInfo records a job's provenance when it came out of the
	// journal instead of a live submission.
	RecoveryInfo = wire.RecoveryInfo
	// PlannedJob summarizes the planner's view of a job.
	PlannedJob = wire.PlannedJob
	// SchedHealth is the cheap liveness snapshot pdmd serves as GET
	// /healthz, carrying the default job geometry a distributed-sort
	// coordinator needs to plan shards for this node.
	SchedHealth = wire.Health
)

// The job states.
const (
	JobQueued   = wire.JobQueued
	JobRunning  = wire.JobRunning
	JobDone     = wire.JobDone
	JobFailed   = wire.JobFailed
	JobCanceled = wire.JobCanceled
	// JobSuspended marks a job Drain stopped at a pass checkpoint; its
	// scratch and journal records survive for the next life to resume.
	JobSuspended = wire.JobSuspended
)

// SchedStats aggregates the scheduler's state and the finished jobs'
// reports for the service's stats and metrics endpoints.
type SchedStats struct {
	sched.Stats

	// UptimeSeconds is the scheduler's age; JobsPerSecond is Completed
	// over uptime.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	JobsPerSecond float64 `json:"jobsPerSecond"`

	// KeysSorted sums N over completed jobs; PassesWeighted is the
	// padded-N-weighted average pass count.
	KeysSorted     int64   `json:"keysSorted"`
	PassesWeighted float64 `json:"passesWeighted"`

	// Aggregated pipeline and compute observability over completed jobs.
	PrefetchHits      int64   `json:"prefetchHits"`
	PrefetchStalls    int64   `json:"prefetchStalls"`
	WriteStalls       int64   `json:"writeStalls"`
	ComputeSeconds    float64 `json:"computeSeconds"`
	WorkerUtilization float64 `json:"workerUtilization"`

	// Durability counters, all zero on an unjournaled scheduler.
	// JobsResumed counts recovered jobs whose rerun consumed a checkpoint
	// manifest; JobsRestarted counts recovered formerly-running jobs that
	// had to restart from the input.
	JobsResumed   int `json:"jobsResumed,omitempty"`
	JobsRestarted int `json:"jobsRestarted,omitempty"`

	// Journal health, mirrored from the write-ahead log.
	JournalBytes        int64 `json:"journalBytes,omitempty"`
	JournalSegments     int   `json:"journalSegments,omitempty"`
	JournalAppends      int64 `json:"journalAppends,omitempty"`
	JournalFsyncErrors  int64 `json:"journalFsyncErrors,omitempty"`
	JournalCompactions  int64 `json:"journalCompactions,omitempty"`
	JournalReplayed     int   `json:"journalReplayed,omitempty"`
	JournalTornTails    int   `json:"journalTornTails,omitempty"`
	JournalReplayErrors int   `json:"journalReplayErrors,omitempty"`
}

// Scheduler runs many sort jobs concurrently against shared machine
// budgets: each admitted job gets its own Machine whose arena capacity is
// reserved on the global memory ledger, whose disks live in a per-job
// scratch directory (when file-backed), and whose worker pool shares the
// global compute limiter.  Admission is FIFO with backpressure; see
// internal/sched for the engine.
type Scheduler struct {
	cfg SchedulerConfig
	eng *sched.Scheduler
	jr  *journal.Journal // nil without JournalDir
	t0  time.Time

	mu        sync.Mutex
	jobs      map[int]*schedJob
	agg       aggregate
	resumed   int // recovered jobs whose rerun consumed a manifest
	restarted int // recovered formerly-running jobs restarted from input
}

// aggregate accumulates completed-job report sums under Scheduler.mu.
type aggregate struct {
	keysSorted     int64
	passesDotN     float64 // Σ passes·paddedN
	paddedN        int64
	prefetchHits   int64
	prefetchStalls int64
	writeStalls    int64
	computeNanos   int64
	busyNanos      int64
	wallNanos      int64
}

// schedJob pairs the engine handle with the facade-side result state.
type schedJob struct {
	spec JobSpec
	*jobResolution
	handle *sched.Job
	// resume is the validated checkpoint manifest a recovered job's rerun
	// should try to resume from; nil means run from the input.
	resume *pdm.Checkpoint

	mu        sync.Mutex
	report    *Report
	keys      []int64
	payloads  [][]byte
	scen      *ScenarioResult
	footprint int
	arenaLeak int
	planned   *PlannedJob
	measured  float64
	recovery  *RecoveryInfo
}

// NewScheduler starts a Scheduler.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.JobMemory == 0 {
		cfg.JobMemory = 4096
	}
	// The defaults must resolve to a machine: JobMemory a perfect square,
	// Backend known, a file backend only with Dir.  Disks: 1 keeps the
	// default-Disks divisibility rule per job, where a spec may name its
	// own Disks.
	if _, _, err := resolveConfig(MachineConfig{Memory: cfg.JobMemory, Disks: 1, Dir: cfg.Dir,
		Backend: cfg.Backend}); err != nil {
		return nil, fmt.Errorf("%w (SchedulerConfig's JobMemory/Backend defaults)", err)
	}
	var jr *journal.Journal
	if cfg.JournalDir != "" {
		var err error
		jr, err = journal.Open(cfg.JournalDir, journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("repro: open journal: %w", err)
		}
	}
	eng, err := sched.New(sched.Config{
		MemKeys:      cfg.Memory,
		DiskKeys:     cfg.DiskBudget,
		Workers:      cfg.Workers,
		Dir:          cfg.Dir,
		MaxQueue:     cfg.MaxQueue,
		Journal:      jr,
		CompactBytes: journalCompactBytes,
	})
	if err != nil {
		if jr != nil {
			jr.Close()
		}
		return nil, err
	}
	s := &Scheduler{cfg: cfg, eng: eng, jr: jr, t0: time.Now(), jobs: make(map[int]*schedJob)}
	s.resubmitRecovered()
	return s, nil
}

// resubmitRecovered replays the engine's recovered set in original FIFO
// order: each job's journaled descriptor is decoded and resubmitted under
// its old id, with its checkpoint manifest armed when it can actually be
// resumed.  Jobs whose spec no longer parses or resolves are retired with
// a terminal record instead of crashing the scheduler in a replay loop.
func (s *Scheduler) resubmitRecovered() {
	for _, rec := range s.eng.Recovered() {
		spec, err := recoveredJobSpec(rec)
		if err != nil {
			s.eng.DropRecovered(rec.ID, err)
			continue
		}
		r, err := s.resolveJobSpec(spec)
		if err != nil {
			s.eng.DropRecovered(rec.ID, err)
			continue
		}
		j := &schedJob{spec: spec, jobResolution: r}
		j.recovery = &RecoveryInfo{RecoveredAt: time.Now(), WasRunning: rec.WasRunning}
		// Resume needs re-openable scratch with exact block addressing:
		// the file backend, a bare-keys comparison sort, and a manifest
		// that decodes.  Scenario jobs always rerun whole — their charged
		// passes interleave sort and non-sort phases, so a sort checkpoint
		// alone cannot reconstruct the run.  Anything else reruns from the
		// input (the journal still pins the job's identity and FIFO
		// position).
		if rec.WasRunning && len(rec.Checkpoint) > 0 && r.alg != core.AlgRadix && !r.isRecords &&
			spec.Scenario == "" && r.backend == pdm.BackendFile {
			var cp pdm.Checkpoint
			if err := json.Unmarshal(rec.Checkpoint, &cp); err == nil && cp.Pass > 0 {
				j.resume = &cp
			}
		}
		if _, err := s.admit(j, sched.Request{
			ID:       rec.ID,
			Label:    rec.Label,
			MemKeys:  rec.MemKeys,
			DiskKeys: rec.DiskKeys,
		}); err != nil {
			s.eng.DropRecovered(rec.ID, err)
		}
	}
}

// journalRecord is what the journal stores of a submission: the descriptor
// with the resolved algorithm in place of a submitted Auto, so a recovered
// job reruns exactly what the first life planned, and, apart, the inline
// Keys and Payloads as the writer of one binary wire.Page — a file beside
// the log that the record only references.  The scenario columns
// (GroupPayloads, IngestBatch) stay in the record for now.
func journalRecord(spec JobSpec, alg Algorithm) (desc []byte, input func(io.Writer) error, err error) {
	spec.Alg = alg
	if len(spec.Keys) > 0 {
		input = wire.Page{N: len(spec.Keys), Keys: spec.Keys, Payloads: spec.Payloads}.WriteBinary
		spec.Keys, spec.Payloads = nil, nil
	}
	desc, err = json.Marshal(spec)
	return desc, input, err
}

// recoveredJobSpec is journalRecord's inverse; the input page is verified
// as it is read.  Records from before the split carry their keys inline.
func recoveredJobSpec(rec sched.RecoveredJob) (JobSpec, error) {
	spec, err := recoveredSpec(rec.Spec)
	if err == nil && rec.Input != "" {
		err = rec.ReadInput(func(r io.Reader, size int64) error {
			p, err := wire.ReadPage(r, size, nil)
			spec.Keys, spec.Payloads = p.Keys, p.Payloads
			return err
		})
	}
	return spec, err
}

// recoveredSpec decodes a submission record back into the descriptor a
// live caller would have submitted.  The stored algorithm is the resolved
// one, which leaves two shapes Validate rejects from a live caller: a
// scenario job names its fallback sort (resolution re-derives it,
// deterministically), and journals written before RadixSort had an Alg
// spell a radix job as a bare universe.  Decoding is deliberately not
// strict: a record from before the descriptor lost a field (a "kernel"
// selector) still replays, the field ignored.
func recoveredSpec(raw []byte) (spec JobSpec, err error) {
	if err = json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("repro: recovered spec: %w", err)
	}
	switch {
	case spec.Scenario != "":
		spec.Alg = Auto
	case spec.Universe > 0:
		spec.Alg = core.AlgRadix
	}
	return spec, nil
}

// admit hands a resolved job to the engine and registers it for status
// queries, returning its id.
func (s *Scheduler) admit(j *schedJob, req sched.Request) (int, error) {
	req.Run = func(ctx context.Context, env sched.Env) error {
		return s.runJob(ctx, env, j)
	}
	handle, err := s.eng.Submit(req)
	if err != nil {
		return 0, err
	}
	j.handle = handle
	s.mu.Lock()
	s.jobs[handle.ID()] = j
	s.mu.Unlock()
	return handle.ID(), nil
}

// jobResolution is a validated JobSpec resolved against this scheduler's
// defaults: the machine configuration the job will run with, the resolved
// algorithm and geometry, and the envelope inputs — shared by Submit
// (admission), Explain (dry-run planning), and the job body.
type jobResolution struct {
	mc      MachineConfig
	pcfg    pdm.Config
	backend pdm.Backend
	// work is the planner's view of the job's sort: the working-set size,
	// the RadixSort universe, the presortedness hint, and — for a
	// full-record sort (isRecords) — the bound on the payload store it
	// spills.
	work      SortSpec
	isRecords bool
	// alg is the algorithm the job runs (Auto resolved by the planner;
	// core.AlgRadix for RadixSort jobs, over [0, work.Universe)).
	alg    Algorithm
	padded int
	disk   int
	// query is the planner's view of a scenario job (JobSpec.ScenarioQuery;
	// the zero value for plain sorts): what the envelope, the dry-run plan
	// and the recorded prediction price.
	query plan.ScenarioQuery
}

// resolveJobSpec validates spec (JobSpec.Validate, then everything that
// depends on this scheduler's defaults) and resolves what admission and
// planning need, without materializing any data.
func (s *Scheduler) resolveJobSpec(spec JobSpec) (*jobResolution, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.N()
	r := &jobResolution{
		work:      SortSpec{N: n, Universe: spec.RadixUniverse()},
		isRecords: spec.IsRecords(),
		alg:       spec.Alg,
	}
	if w := spec.Workload; w != nil {
		r.work.Presorted = presortedHint(w.Kind)
		if w.Payload != nil {
			r.work.PayloadWords = n * ((w.Payload.MaxBytes + 7) / 8)
		}
	} else if r.isRecords {
		r.work.PayloadWords = records.PayloadWords(spec.Payloads)
	}
	r.mc = MachineConfig{
		Memory:       spec.Memory,
		Disks:        spec.Disks,
		Workers:      spec.Workers,
		Dir:          s.cfg.Dir, // the storage mode; runJob points it at the job's own scratch
		Backend:      spec.Backend,
		Pipeline:     s.cfg.Pipeline,
		BlockLatency: time.Duration(spec.BlockLatencyUS) * time.Microsecond,
	}
	if r.mc.Memory == 0 {
		r.mc.Memory = s.cfg.JobMemory
	}
	if r.mc.Backend == "" {
		r.mc.Backend = s.cfg.Backend
	}
	if spec.Pipeline != nil {
		r.mc.Pipeline = *spec.Pipeline
	}
	var err error
	r.pcfg, r.backend, err = resolveConfig(r.mc)
	if err != nil {
		return nil, err
	}
	if r.alg == Auto {
		r.alg = planFor(r.pcfg.Mem, r.pcfg.D, n)
	}
	r.padded, err = padForSize(r.pcfg.Mem, r.alg, n)
	if err != nil {
		return nil, err
	}
	// The disk envelope is the planner's per-algorithm scratch prediction —
	// tighter than the old per-family worst case, so a large job blocks the
	// FIFO head for less budget than before.  A records job's payload spill
	// runs after the key sort's stripes are freed, so its scratch
	// high-water is the larger of the two phases.
	r.disk = plan.DiskEnvelope(r.alg, r.padded, r.pcfg.D*r.pcfg.B)
	if r.isRecords {
		r.disk = max(r.disk, records.DiskEnvelope(n, r.work.PayloadWords, r.pcfg.Mem, r.pcfg.D, r.pcfg.B))
	}
	if spec.Scenario != "" {
		// A scenario job's scratch high-water is the larger of its scenario
		// route and the full-sort route it may fall back to (computed above).
		r.query = spec.ScenarioQuery()
		r.disk = max(r.disk, plan.ScenarioDiskEnvelope(planShape(r.pcfg.Mem, r.pcfg.D, planAlpha), r.query))
		if r.query.PairWords == 2 {
			// The group-by sort route carries the payload column as one
			// 8-byte record payload per key.
			r.disk = max(r.disk, records.DiskEnvelope(r.query.N, r.query.N, r.pcfg.Mem, r.pcfg.D, r.pcfg.B))
		}
	}
	return r, nil
}

// presortedHint maps a workload kind onto the planner's presortedness
// hint: how much existing order the generator's output carries.
func presortedHint(kind string) float64 {
	switch kind {
	case "sorted":
		return 1
	case "nearlysorted":
		return 0.8
	case "sortedruns":
		return 0.5
	default:
		return 0
	}
}

// Submit enqueues a job and returns its id.  The job's memory envelope is
// its machine's whole arena capacity and its disk envelope the planner's
// per-algorithm scratch prediction; admission waits (FIFO) until both fit
// the global budgets.  Backpressure surfaces as sched.ErrQueueFull.
func (s *Scheduler) Submit(spec JobSpec) (int, error) {
	r, err := s.resolveJobSpec(spec)
	if err != nil {
		return 0, err
	}
	req := sched.Request{Label: spec.Label, MemKeys: r.pcfg.ArenaCapacity(), DiskKeys: r.disk}
	if s.jr != nil {
		if req.Spec, req.Input, err = journalRecord(spec, r.alg); err != nil {
			return 0, fmt.Errorf("repro: journal spec: %w", err)
		}
	}
	return s.admit(&schedJob{spec: spec, jobResolution: r}, req)
}

// Explain dry-runs the planner for a JobSpec without admitting anything:
// the ranked candidate table for the job's machine and workload shapes,
// priced with the (cached) calibration for the scheduler's backend.  pdmd
// serves it as GET /plan.
func (s *Scheduler) Explain(spec JobSpec) (*PlanReport, error) {
	r, err := s.resolveJobSpec(spec)
	if err != nil {
		return nil, err
	}
	// The workers the job machine would resolve to (runJob falls back to
	// the engine's global width), so this dry-run keys the same
	// calibration-cache entry as the job's own recorded prediction.
	workers := r.mc.Workers
	if workers == 0 {
		workers = s.eng.Stats().Workers
	}
	out, probe, err := explainOn(r.pcfg, workers, r.mc.BlockLatency, r.backend, r.work)
	if err != nil {
		return nil, err
	}
	out.Backends = rankBackends(probe)
	// Pin the choice to what the submitted job actually runs: the resolved
	// algorithm (the Auto path's deterministic pick, or the spec's forced
	// one).  The table still ranks what the calibrated model would prefer.
	out.setChosen(r.alg)
	return out, nil
}

// runJob is the job body executed by the engine once admitted.  A
// recovered job with a validated manifest first attempts to resume over
// its surviving scratch files; if that attempt fails for any reason other
// than cancellation or a drain, the scratch is considered unusable and
// the job restarts from the input on a fresh machine.
func (s *Scheduler) runJob(ctx context.Context, env sched.Env, j *schedJob) error {
	mc := j.mc
	keys := j.spec.Keys
	payloads := j.spec.Payloads
	if j.spec.Workload != nil {
		var err error
		keys, err = j.spec.Workload.Generate()
		if err != nil {
			return err
		}
		if ps := j.spec.Workload.Payload; ps != nil {
			payloads = ps.Materialize(len(keys), j.spec.Workload.Seed)
		}
	}
	mc.Dir = env.Dir
	if mc.Workers == 0 {
		mc.Workers = env.Workers
	}
	m, rep, wall, err := s.sortAttempt(ctx, env, j, mc, keys, payloads, j.resume)
	switch {
	case j.resume != nil && err == nil:
		if m.Array().ResumeConsumed() {
			s.noteRecovery(j, j.resume.Pass)
		} else {
			s.noteRecovery(j, 0)
		}
	case j.resume != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, sched.ErrDraining):
		// The manifest (or the scratch behind it) let the resumed run
		// down; rerun from the input on truncated disks.  A cancellation
		// or drain mid-resume is not a fallback trigger — the manifest
		// stays good for the next life.
		if m != nil {
			m.Close()
		}
		s.noteRecovery(j, 0)
		m, rep, wall, err = s.sortAttempt(ctx, env, j, mc, keys, payloads, nil)
	case j.resume == nil && j.recovery != nil && j.recovery.WasRunning:
		s.noteRecovery(j, 0)
	}
	if m == nil {
		return err
	}
	defer m.Close()
	foot := m.Array().DiskFootprint()
	leak := m.Array().Arena().InUse()
	j.mu.Lock()
	j.footprint = foot
	j.arenaLeak = leak
	if err == nil {
		j.measured = wall
		j.report = rep
		// Scenario jobs retain their (small or KeepKeys-gated) results on
		// j.scen instead; the input keys are not the output.
		if j.spec.KeepKeys && j.spec.Scenario == "" {
			j.keys = keys
			if j.isRecords {
				j.payloads = payloads
			}
		}
	}
	// The finished job's handle lives in the jobs map for status queries;
	// drop the inline input slices so a long-running service does not
	// retain every job's keys and payload bytes forever (KeepKeys results
	// live on j.keys/j.payloads instead).
	j.spec.Keys = nil
	j.spec.Payloads = nil
	j.spec.GroupPayloads = nil
	j.spec.IngestBatch = nil
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if leak != 0 {
		return fmt.Errorf("repro: job %d leaked %d arena keys", env.JobID, leak)
	}
	s.mu.Lock()
	s.agg.keysSorted += int64(rep.N)
	s.agg.passesDotN += rep.Passes * float64(rep.PaddedN)
	s.agg.paddedN += int64(rep.PaddedN)
	s.agg.prefetchHits += rep.PrefetchHits
	s.agg.prefetchStalls += rep.PrefetchStalls
	s.agg.writeStalls += rep.WriteStalls
	s.agg.computeNanos += int64(rep.ComputeSeconds * 1e9)
	s.agg.wallNanos += rep.IO.ComputeWallNanos
	s.agg.busyNanos += rep.IO.ComputeBusyNanos
	s.mu.Unlock()
	return nil
}

// sortAttempt runs one machine-building attempt of the job body: fresh
// truncated disks when resume is nil, reopened surviving scratch (with
// the manifest armed) otherwise.  Every pass boundary the machine reports
// is marshaled into the engine's journal through env.Checkpoint.  The
// machine is returned even on error so the caller can decide between
// fallback and teardown; it is nil only when construction itself failed.
func (s *Scheduler) sortAttempt(ctx context.Context, env sched.Env, j *schedJob, mc MachineConfig,
	keys []int64, payloads [][]byte, resume *pdm.Checkpoint) (*Machine, *Report, float64, error) {
	mc.ReuseDisks = resume != nil
	m, err := newMachine(mc, env.Limiter)
	if err != nil {
		return nil, nil, 0, err
	}
	m.Array().SetCheckpointer(func(cp pdm.Checkpoint) error {
		data, merr := json.Marshal(cp)
		if merr != nil {
			return nil // unshippable manifest: skip the boundary, keep sorting
		}
		return env.Checkpoint(data)
	})
	if resume != nil {
		m.Array().SetResume(resume)
	}
	j.recordPlan(m, payloads)
	// The scheduler owns this machine for the job's whole life, so the job
	// context is bound once: cancellation aborts whichever entry point runs
	// at its next I/O, with the arena drained.
	m.Array().BindContext(ctx)
	t0 := time.Now()
	var rep *Report
	switch {
	case j.spec.Scenario != "":
		var res *ScenarioResult
		if res, rep, err = m.RunScenario(&j.spec, keys); err == nil {
			j.mu.Lock()
			j.scen = res
			j.mu.Unlock()
		}
	case j.alg == core.AlgRadix:
		rep, err = m.SortInts(keys, j.work.Universe)
	case j.isRecords:
		rep, err = m.SortRecords(keys, payloads, j.alg)
	default:
		rep, err = m.Sort(keys, j.alg)
	}
	return m, rep, time.Since(t0).Seconds(), err
}

// ScenarioResult returns the retained result of a completed scenario job.
func (s *Scheduler) ScenarioResult(id int) (*ScenarioResult, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown job %d", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.spec.Scenario == "" {
		return nil, fmt.Errorf("repro: job %d is not a scenario job", id)
	}
	if j.scen == nil {
		return nil, fmt.Errorf("repro: job %d has no result (state %s)", id, j.handle.State())
	}
	return j.scen, nil
}

// ExplainScenario dry-runs the scenario planner for a JobSpec without
// admitting anything: the scenario route's closed-form step and pass
// predictions against the full-sort alternative, and the Auto decision
// between them.  pdmd serves it as GET /plan/scenario.
func (s *Scheduler) ExplainScenario(spec JobSpec) (*ScenarioPlanReport, error) {
	r, err := s.resolveJobSpec(spec)
	if err != nil {
		return nil, err
	}
	if spec.Scenario == "" {
		return nil, fmt.Errorf("repro: JobSpec has no scenario")
	}
	p, err := plan.Scenario(planShape(r.pcfg.Mem, r.pcfg.D, planAlpha), r.query)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &p, nil
}

// noteRecovery records how a recovered job's rerun actually proceeded:
// pass > 0 means it resumed from that checkpointed pass, 0 means it
// restarted from the input.
func (s *Scheduler) noteRecovery(j *schedJob, pass int) {
	j.mu.Lock()
	if j.recovery == nil {
		j.recovery = &RecoveryInfo{RecoveredAt: time.Now(), WasRunning: true}
	}
	j.recovery.ResumedFromPass = pass
	j.recovery.RestartedFromInput = pass == 0
	j.mu.Unlock()
	s.mu.Lock()
	if pass > 0 {
		s.resumed++
	} else {
		s.restarted++
	}
	s.mu.Unlock()
}

// recordPlan stores the cost model's prediction for the algorithm this
// job runs, priced with the job machine's cached calibration; JobStatus
// reports it alongside the measured wall so per-job prediction drift is
// visible.  Planning failures are non-fatal — the sort proceeds unplanned.
func (j *schedJob) recordPlan(m *Machine, payloads [][]byte) {
	if j.spec.Scenario != "" {
		j.recordScenarioPlan(m)
		return
	}
	spec := j.work
	if j.isRecords {
		// The exact volume, now that the payloads are materialized.
		spec.PayloadWords = records.PayloadWords(payloads)
	}
	rep, _, err := m.explain(spec)
	if err != nil {
		return
	}
	name := string(j.alg)
	c := rep.Candidate(name)
	if c == nil || !c.Feasible {
		return
	}
	j.mu.Lock()
	j.planned = &PlannedJob{
		Algorithm:        name,
		PredictedSeconds: c.Seconds,
		PredictedPasses:  c.ReadPasses,
		Probed:           rep.Calibration.Probed,
	}
	j.mu.Unlock()
}

// recordScenarioPlan is recordPlan for scenario jobs: the prediction is the
// scenario plan's read passes under its named route (no wall-seconds model
// exists for scenario routes, so PredictedSeconds stays zero and the drift
// field is not computed).
func (j *schedJob) recordScenarioPlan(m *Machine) {
	p, err := m.ExplainScenario(j.query)
	if err != nil {
		return
	}
	passes, route := p.ReadPasses, p.Route
	if !p.Feasible || !p.UseScenario {
		// The scenario route lost (or was infeasible): the job runs the
		// full-sort fallback, so that is the prediction on record.
		if p.FullSortAlgorithm == "" {
			return
		}
		passes, route = p.FullSortReadPasses, plan.RouteFullSort
	}
	j.mu.Lock()
	j.planned = &PlannedJob{
		Algorithm:       j.spec.Scenario + "/" + route,
		PredictedPasses: passes,
	}
	j.mu.Unlock()
}

// Status returns a snapshot of the job with the given id.
func (s *Scheduler) Status(id int) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return s.statusOf(j), true
}

// Jobs returns a snapshot of every job in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	handles := make([]*schedJob, 0, len(s.jobs))
	for _, h := range s.eng.Jobs() {
		if j, ok := s.jobs[h.ID()]; ok {
			handles = append(handles, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(handles))
	for i, j := range handles {
		out[i] = s.statusOf(j)
	}
	return out
}

func (s *Scheduler) statusOf(j *schedJob) JobStatus {
	h := j.handle
	submitted, started, finished := h.Times()
	st := JobStatus{
		ID:           h.ID(),
		Label:        h.Label(),
		N:            j.work.N,
		Submitted:    submitted,
		Started:      started,
		Finished:     finished,
		MemReserved:  h.MemKeys(),
		DiskReserved: h.DiskKeys(),
	}
	st.Algorithm = j.alg.String()
	st.Scenario = j.spec.Scenario
	if cerr := h.CleanupErr(); cerr != nil {
		st.CleanupError = cerr.Error()
	}
	st.State = h.State()
	if err := h.Err(); err != nil {
		st.Error = err.Error()
	}
	j.mu.Lock()
	if j.recovery != nil {
		r := *j.recovery
		st.Recovery = &r
	}
	st.Report = j.report
	st.DiskFootprint = j.footprint
	st.ArenaLeak = j.arenaLeak
	st.Planned = j.planned
	st.MeasuredSeconds = j.measured
	if j.planned != nil && j.planned.PredictedSeconds > 0 && j.measured > 0 {
		st.PredictionError = (j.measured - j.planned.PredictedSeconds) / j.planned.PredictedSeconds
	}
	j.mu.Unlock()
	return st
}

// Cancel cancels the job, reporting whether id exists.  A queued job is
// dropped without ever holding resources; a running one aborts at its
// next I/O or cleanup chunk and releases its whole envelope.
func (s *Scheduler) Cancel(id int) bool {
	return s.eng.Cancel(id)
}

// Wait blocks until the job finishes (or ctx is canceled) and returns its
// final status.
func (s *Scheduler) Wait(ctx context.Context, id int) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("repro: unknown job %d", id)
	}
	if err := j.handle.Wait(ctx); err != nil && ctx.Err() != nil {
		return JobStatus{}, err
	}
	return s.statusOf(j), nil
}

// SortedKeys returns the retained sorted output of a completed job
// submitted with KeepKeys.
func (s *Scheduler) SortedKeys(id int) ([]int64, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown job %d", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.report == nil {
		return nil, fmt.Errorf("repro: job %d has no result (state %s)", id, j.handle.State())
	}
	if j.keys == nil {
		return nil, fmt.Errorf("repro: job %d was not submitted with KeepKeys", id)
	}
	return j.keys, nil
}

// SortedRecords returns the retained sorted output — keys paired with
// payloads — of a completed records job submitted with KeepKeys.
func (s *Scheduler) SortedRecords(id int) ([]int64, [][]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("repro: unknown job %d", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.report == nil {
		return nil, nil, fmt.Errorf("repro: job %d has no result (state %s)", id, j.handle.State())
	}
	if !j.isRecords {
		return nil, nil, fmt.Errorf("repro: job %d is not a records job", id)
	}
	if j.keys == nil {
		return nil, nil, fmt.Errorf("repro: job %d was not submitted with KeepKeys", id)
	}
	return j.keys, j.payloads, nil
}

// Health returns the liveness snapshot.  It never fails: a scheduler that
// answers is healthy (jobs may still be rejected individually at submit).
func (s *Scheduler) Health() SchedHealth {
	st := s.eng.Stats()
	h := SchedHealth{
		Status:     "ok",
		JobMemory:  s.cfg.JobMemory,
		Alpha:      planAlpha,
		Workers:    st.Workers,
		Backend:    s.cfg.Backend,
		FileBacked: s.cfg.Dir != "",
		Queued:     st.Queued,
		Running:    st.Running,
		Durable:    s.jr != nil,
		Recovered:  st.Recovered,
		Suspended:  st.Suspended,
	}
	// Resolve the default geometry exactly as a default job would.
	if pcfg, _, err := resolveConfig(MachineConfig{Memory: s.cfg.JobMemory}); err == nil {
		h.BlockSize = pcfg.B
		h.Disks = pcfg.D
	}
	return h
}

// Stats returns the aggregate scheduler statistics.
func (s *Scheduler) Stats() SchedStats {
	up := time.Since(s.t0).Seconds()
	st := SchedStats{Stats: s.eng.Stats(), UptimeSeconds: up}
	s.mu.Lock()
	agg := s.agg
	s.mu.Unlock()
	if up > 0 {
		st.JobsPerSecond = float64(st.Completed) / up
	}
	st.KeysSorted = agg.keysSorted
	if agg.paddedN > 0 {
		st.PassesWeighted = agg.passesDotN / float64(agg.paddedN)
	}
	s.mu.Lock()
	st.JobsResumed = s.resumed
	st.JobsRestarted = s.restarted
	s.mu.Unlock()
	if s.jr != nil {
		m := s.jr.Metrics()
		st.JournalBytes = m.Bytes
		st.JournalSegments = m.Segments
		st.JournalAppends = m.Appends
		st.JournalFsyncErrors = m.FsyncErrors
		st.JournalCompactions = m.Compactions
		st.JournalReplayed = m.ReplayedRecords
		st.JournalTornTails = m.TornTails
		st.JournalReplayErrors = m.ReplayErrors
	}
	st.PrefetchHits = agg.prefetchHits
	st.PrefetchStalls = agg.prefetchStalls
	st.WriteStalls = agg.writeStalls
	st.ComputeSeconds = float64(agg.computeNanos) / 1e9
	if agg.wallNanos > 0 && st.Workers > 0 {
		u := float64(agg.busyNanos) / (float64(agg.wallNanos) * float64(st.Workers))
		if u > 1 {
			u = 1
		}
		st.WorkerUtilization = u
	} else {
		st.WorkerUtilization = 1
	}
	return st
}

// Close stops admission, cancels every remaining job, and waits for the
// running ones to drain.
func (s *Scheduler) Close() {
	s.eng.Close()
}

// Drain stops admission and parks the scheduler's work durably: running
// jobs stop at their next pass checkpoint (Suspended, scratch kept) and
// queued jobs stay journaled in order, so the next scheduler life over
// the same JournalDir and Dir picks everything back up.  If ctx expires
// first the stragglers are canceled — they still suspend at whatever
// checkpoint they last journaled — and ctx's error is returned.
func (s *Scheduler) Drain(ctx context.Context) error {
	return s.eng.Drain(ctx)
}
