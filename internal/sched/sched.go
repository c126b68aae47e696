// Package sched admits and runs jobs against global memory, disk, and
// compute budgets, optionally journaling every lifecycle transition so a
// restarted scheduler can recover its queue and resume interrupted work.
package sched

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/par"
	"repro/internal/pdm"
	"repro/internal/wire"
)

// State is a job's lifecycle position: the wire's JobState, so the service
// reports the engine's states as they are and a terminal journal record
// stores the same word.
type State = wire.JobState

const (
	// Queued jobs wait for admission in FIFO order.
	Queued = wire.JobQueued
	// Running jobs hold their memory/disk envelopes and execute.
	Running = wire.JobRunning
	// Done jobs completed successfully.
	Done = wire.JobDone
	// Failed jobs returned an error other than cancellation.
	Failed = wire.JobFailed
	// Canceled jobs were canceled before or during execution.
	Canceled = wire.JobCanceled
	// Suspended jobs were interrupted at a pass boundary by Drain: the
	// envelope is released and the scratch directory kept, and no terminal
	// record is journaled, so a restarted scheduler recovers them.
	Suspended = wire.JobSuspended
)

// Errors returned by the scheduler.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity — the service's backpressure signal.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrTooLarge is returned by Submit for a job whose envelope could
	// never fit the scheduler's total budget.
	ErrTooLarge = errors.New("sched: job envelope exceeds the scheduler budget")
	// ErrDraining is returned from Env.Checkpoint while the scheduler is
	// draining: the job has a durable manifest for the pass it just
	// finished, so it should abort here and let recovery resume it.
	ErrDraining = errors.New("sched: draining, stop at this checkpoint")
	// ErrUnknownRecovered is returned by Submit for a Request.ID that does
	// not name a pending recovered job.
	ErrUnknownRecovered = errors.New("sched: no pending recovered job with that id")
)

// Config sizes a Scheduler.
type Config struct {
	// MemKeys is the global internal-memory budget in keys; every running
	// job's arena capacity is carved from it.  Required.
	MemKeys int
	// DiskKeys is the global scratch budget in keys; zero selects
	// 64·MemKeys.
	DiskKeys int
	// Workers is the global compute budget: the width of the par.Limiter
	// every job's worker pool shares.  Zero selects GOMAXPROCS.
	Workers int
	// Dir, when non-empty, gives each job a scratch directory
	// Dir/job-NNNN (created at admission, removed at completion) for
	// file-backed disks.
	Dir string
	// MaxQueue bounds the number of queued jobs; zero selects 1024.
	MaxQueue int
	// RemoveDir removes a job's scratch directory when the job finishes;
	// nil selects os.RemoveAll.  It exists as a seam for the cleanup-
	// failure tests (an undeletable directory cannot be simulated portably
	// when the test runs as root).
	RemoveDir func(string) error
	// Journal, when non-nil, receives an append-only record of every job
	// lifecycle transition.  New replays whatever the journal recovered:
	// jobs without a terminal record become Recovered() candidates, and
	// scratch directories under Dir with no live journal entry are swept.
	// The scheduler owns the journal from here on and closes it on
	// Close/Drain.
	Journal *journal.Journal
	// CompactBytes triggers a compacting snapshot when the journal's
	// on-disk size reaches this many bytes; zero disables compaction.
	CompactBytes int64
}

// Env is what an admitted job receives: its identity, the shared compute
// budget, its scratch directory ("" when the scheduler is memory-backed),
// and a Checkpoint sink for durable pass manifests.
type Env struct {
	JobID   int
	Limiter *par.Limiter
	Workers int
	Dir     string
	// Checkpoint journals an opaque pass manifest for this job.  It
	// returns ErrDraining when the scheduler wants the job to stop at
	// this boundary; the job should abort with that error so it is
	// suspended (scratch kept) rather than failed.  Always non-nil.
	Checkpoint func(manifest []byte) error
}

// Request describes one job: its resource envelope and its body.
type Request struct {
	// Label is a free-form tag carried through to status reports.
	Label string
	// MemKeys is the internal-memory envelope reserved on the global
	// ledger for the job's lifetime (for a sorting job: the whole arena
	// capacity of its machine).  Must be positive.
	MemKeys int
	// DiskKeys is the on-disk scratch envelope reserved for the job.
	DiskKeys int
	// Spec is an opaque description of the job journaled with its
	// submission record and handed back verbatim through
	// RecoveredJob.Spec, so the owner can reconstruct Run after a
	// restart.  Ignored without a journal.
	Spec []byte
	// Input is Spec's bulk companion: it writes the job's input, once, to
	// input-NNNN.page beside the log, fsynced before the submission record
	// that names it.  Ignored without a journal and on a resubmission.
	Input func(w io.Writer) error
	// ID, when nonzero, resubmits the pending recovered job with that
	// identity instead of assigning a fresh one.  The job keeps its
	// original journal records (and therefore its original scratch
	// directory); no new submission record is written.
	ID int
	// Run is the job body.  It must honor ctx — the pdm layer turns a
	// bound context into failing I/O, so a sorting Run that binds ctx to
	// its machine's array (pdm.Array.BindContext) aborts promptly when
	// canceled.
	Run func(ctx context.Context, env Env) error
}

// Job is a handle on one submitted job.
type Job struct {
	id       int
	label    string
	memKeys  int
	diskKeys int
	run      func(ctx context.Context, env Env) error
	done     chan struct{}

	mu              sync.Mutex
	state           State
	cancelRequested bool
	cancel          context.CancelFunc
	err             error
	cleanupErr      error
	submitted       time.Time
	started         time.Time
	finished        time.Time

	// Journal records backing this job, kept so compaction can carry the
	// live tail of the log forward.  Written under the scheduler's
	// journal mutex, read under j.mu.
	subRec   *journal.Record
	admitRec *journal.Record
	ckptRec  *journal.Record
}

// ID returns the job's scheduler-assigned identifier.
func (j *Job) ID() int { return j.id }

// Label returns the submit-time tag.
func (j *Job) Label() string { return j.label }

// MemKeys returns the job's internal-memory envelope.
func (j *Job) MemKeys() int { return j.memKeys }

// DiskKeys returns the job's scratch envelope.
func (j *Job) DiskKeys() int { return j.diskKeys }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error (nil while not finished or Done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// CleanupErr returns the scratch-directory removal failure recorded when
// the job's envelope was released (nil when cleanup succeeded or the job
// had no scratch directory).  A non-nil value means the directory is
// still on disk even though the envelope was returned — leaked space an
// operator must reclaim.
func (j *Job) CleanupErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cleanupErr
}

// Times returns the submit, start, and finish timestamps (zero when the
// job has not reached the corresponding transition).
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is canceled, returning the
// job's terminal error (nil for Done).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation: a queued job is dropped at the next
// admission step without ever holding resources; a running job has its
// context canceled.  Idempotent; a no-op on finished jobs.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.cancelRequested = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stats is a snapshot of the scheduler's aggregate state.
type Stats struct {
	Submitted int
	Completed int
	Failed    int
	Canceled  int
	Queued    int
	Running   int
	// Suspended counts jobs interrupted at a checkpoint by Drain.
	Suspended int

	MemInUse     int
	MemCapacity  int
	DiskInUse    int
	DiskCapacity int
	Workers      int

	// CleanupFailures counts jobs whose scratch directory could not be
	// removed when their envelope was released.  Every such failure leaks
	// disk outside the budget ledger, so a nonzero value is an operator
	// signal; the per-job error is on Job.CleanupErr.
	CleanupFailures int

	// Recovered counts jobs replayed live from the journal at startup;
	// PendingRecovered is how many have not been resubmitted yet.
	Recovered        int
	PendingRecovered int
	// OrphansSwept counts scratch directories (and input files) removed at
	// startup because no live journal entry claimed them.
	OrphansSwept int
	// JournalInputBytes totals the live jobs' input files beside the log.
	JournalInputBytes int64
}

// RecoveredJob describes a job the journal replayed live at startup: it
// was submitted in a previous life and never reached a terminal state.
// The owner reconstructs its Run body from Spec and resubmits it with
// Request.ID = ID, or retires it with DropRecovered.
type RecoveredJob struct {
	ID       int
	Label    string
	MemKeys  int
	DiskKeys int
	// Spec is the opaque submission payload journaled by the previous
	// life's Submit.
	Spec []byte
	// WasRunning reports that the job had been admitted (or had
	// checkpointed) before the crash; its scratch directory survives.
	WasRunning bool
	// Checkpoint is the job's last journaled pass manifest, nil if it
	// never completed a pass.
	Checkpoint []byte
	Input      string // the file Request.Input wrote ("" if none), for ReadInput
	ref        inputRef
}

// ReadInput streams the input file through decode, which must consume all
// size bytes, and fails, naming the file, when it is missing, undecodable,
// or not the journaled length and CRC-32 — never a run on wrong input.
func (r RecoveredJob) ReadInput(decode func(r io.Reader, size int64) error) error {
	f, err := os.Open(r.Input)
	if err != nil {
		return fmt.Errorf("sched: job input: %w", err)
	}
	defer f.Close()
	sum := crc32.NewIEEE()
	if st, serr := f.Stat(); serr != nil || st.Size() != r.ref.Bytes {
		err = fmt.Errorf("not the %d bytes journaled", r.ref.Bytes)
	} else if err = decode(io.TeeReader(f, sum), r.ref.Bytes); err == nil && sum.Sum32() != r.ref.CRC {
		err = errors.New("CRC-32 mismatch")
	}
	if err != nil {
		return fmt.Errorf("sched: job input %s: %w", r.Input, err)
	}
	return nil
}

// recoveredState keeps a pending recovered job's replayed journal
// records so compaction preserves them and resubmission re-attaches them.
type recoveredState struct {
	sub  journal.Record
	ckpt *journal.Record
}

// submittedData is the JSON payload of a Submitted journal record.
type submittedData struct {
	Label    string          `json:"label,omitempty"`
	MemKeys  int             `json:"memKeys"`
	DiskKeys int             `json:"diskKeys"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Input    *inputRef       `json:"input,omitempty"`
}

// inputRef is what a Submitted record holds of the job's input: the file's
// name in the journal directory, its length and its CRC-32/IEEE.
type inputRef struct {
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc32"`
}

// terminalData is the JSON payload of a Terminal journal record.
type terminalData struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// Scheduler admits and runs jobs against the global budgets.
type Scheduler struct {
	cfg Config
	lim *par.Limiter
	mem *pdm.Arena // global internal-memory ledger

	// jmu serializes every journal write (Submit holds it from its record
	// to its enqueue), so journal record order matches queue order and
	// compaction can gather the live record set without racing a concurrent
	// append.  Lock order: jmu before mu before any j.mu.
	jmu sync.Mutex

	mu              sync.Mutex
	cond            *sync.Cond
	queue           []*Job
	jobs            map[int]*Job
	nextID          int
	diskInUse       int
	running         int
	completed       int
	failed          int
	canceled        int
	suspended       int
	cleanupFailures int
	orphansSwept    int
	closed          bool
	draining        bool

	pending       map[int]*recoveredState
	recoveredList []RecoveredJob
	inputs        map[int]int64 // live jobs' input files: id -> bytes

	wg sync.WaitGroup
}

// New starts a scheduler with the given budgets.  When cfg.Journal is
// set, New first replays it: jobs without terminal records become
// Recovered() candidates (in original submission order), and scratch
// directories under cfg.Dir with no live journal entry are removed.
// Without a journal, every leftover job directory is an orphan.
func New(cfg Config) (*Scheduler, error) {
	if cfg.MemKeys <= 0 {
		return nil, fmt.Errorf("sched: MemKeys = %d, want > 0", cfg.MemKeys)
	}
	if cfg.DiskKeys == 0 {
		cfg.DiskKeys = 64 * cfg.MemKeys
	}
	if cfg.DiskKeys < 0 {
		return nil, fmt.Errorf("sched: DiskKeys = %d, want >= 0", cfg.DiskKeys)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.RemoveDir == nil {
		cfg.RemoveDir = os.RemoveAll
	}
	s := &Scheduler{
		cfg:     cfg,
		lim:     par.NewLimiter(cfg.Workers),
		mem:     pdm.NewArena(cfg.MemKeys),
		jobs:    make(map[int]*Job),
		pending: make(map[int]*recoveredState),
		inputs:  make(map[int]int64),
	}
	s.cond = sync.NewCond(&s.mu)
	s.recover()
	if cfg.Dir != "" {
		s.sweep(cfg.Dir, "job-%d", true, s.cfg.RemoveDir)
	}
	if cfg.Journal != nil {
		s.sweep(cfg.Journal.Dir(), "input-%d.page", false, os.Remove)
	}
	s.wg.Add(1)
	go s.admit()
	return s, nil
}

// recover replays the journal into the pending-recovered set.
func (s *Scheduler) recover() {
	if s.cfg.Journal == nil {
		return
	}
	type track struct {
		sub      journal.Record
		data     submittedData
		admitted bool
		ckpt     *journal.Record
		terminal bool
	}
	byID := make(map[int]*track)
	var order []int
	for _, r := range s.cfg.Journal.Replayed() {
		if r.Job > s.nextID {
			s.nextID = r.Job
		}
		switch r.Type {
		case journal.Submitted:
			t := &track{sub: r}
			_ = json.Unmarshal(r.Data, &t.data)
			if byID[r.Job] == nil {
				order = append(order, r.Job)
			}
			byID[r.Job] = t
		case journal.Admitted:
			if t := byID[r.Job]; t != nil {
				t.admitted = true
			}
		case journal.Checkpoint:
			if t := byID[r.Job]; t != nil {
				rr := r
				t.ckpt = &rr
				// A checkpoint implies the job was running even if its
				// Admitted record was lost to a torn tail.
				t.admitted = true
			}
		case journal.Terminal:
			if t := byID[r.Job]; t != nil {
				t.terminal = true
			}
		}
	}
	for _, id := range order {
		t := byID[id]
		if t.terminal {
			continue
		}
		rj := RecoveredJob{
			ID:         id,
			Label:      t.data.Label,
			MemKeys:    t.data.MemKeys,
			DiskKeys:   t.data.DiskKeys,
			Spec:       t.data.Spec,
			WasRunning: t.admitted,
		}
		if t.ckpt != nil {
			rj.Checkpoint = t.ckpt.Data
		}
		if ref := t.data.Input; ref != nil {
			rj.Input, rj.ref = filepath.Join(s.cfg.Journal.Dir(), filepath.Base(ref.File)), *ref
			s.inputs[id] = ref.Bytes
		}
		s.recoveredList = append(s.recoveredList, rj)
		s.pending[id] = &recoveredState{sub: t.sub, ckpt: t.ckpt}
	}
}

// sweep removes dir's entries named by pattern (job scratch directories,
// input files) whose id has no live journal entry: leftovers of jobs that
// reached a terminal state right before a crash, of a submission that
// crashed between its input file and its record, or of an unjournaled life.
func (s *Scheduler) sweep(dir, pattern string, isDir bool, remove func(string) error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var id int
		if e.IsDir() != isDir {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), pattern, &id); err != nil {
			continue
		}
		if _, live := s.pending[id]; live {
			continue
		}
		if err := remove(filepath.Join(dir, e.Name())); err != nil {
			s.cleanupFailures++
		} else {
			s.orphansSwept++
		}
	}
}

// inputPath is where job id's input file lives.
func (s *Scheduler) inputPath(id int) string {
	return filepath.Join(s.cfg.Journal.Dir(), fmt.Sprintf("input-%04d.page", id))
}

// Recovered returns the jobs replayed live from the journal, in original
// submission order.  The owner resubmits each with Request.ID or retires
// it with DropRecovered; until then its journal records and scratch
// directory are preserved.
func (s *Scheduler) Recovered() []RecoveredJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RecoveredJob, len(s.recoveredList))
	copy(out, s.recoveredList)
	return out
}

// DropRecovered retires a pending recovered job without rerunning it,
// journaling a Failed terminal record (so it is not recovered again) and
// removing its scratch directory (and input file).  It reports whether id
// named a pending recovered job.
func (s *Scheduler) DropRecovered(id int, err error) bool {
	s.mu.Lock()
	_, ok := s.pending[id]
	if ok {
		delete(s.pending, id)
		s.failed++
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	s.journalTerminal(id, Failed, err)
	if s.cfg.Dir != "" && s.cfg.RemoveDir(filepath.Join(s.cfg.Dir, fmt.Sprintf("job-%04d", id))) != nil {
		s.mu.Lock()
		s.cleanupFailures++
		s.mu.Unlock()
	}
	return true
}

// Limiter returns the shared compute budget (for harnesses that build
// machines outside the scheduler but want to share its width).
func (s *Scheduler) Limiter() *par.Limiter { return s.lim }

// Ledger returns the global internal-memory ledger arena.
func (s *Scheduler) Ledger() *pdm.Arena { return s.mem }

// Submit enqueues a job.  It fails fast with ErrTooLarge for envelopes
// that could never fit and with ErrQueueFull when the queue is at
// capacity; otherwise the job waits its FIFO turn.  With a journal, the
// input file and then the submission record are fsynced before the job is
// queued, and a failure of either rejects the submission — a job the log
// cannot recover is a job the scheduler never accepted.
func (s *Scheduler) Submit(req Request) (j *Job, err error) {
	if req.Run == nil {
		return nil, errors.New("sched: Request.Run is nil")
	}
	if req.MemKeys <= 0 || req.DiskKeys < 0 {
		return nil, fmt.Errorf("sched: bad envelope: mem %d keys, disk %d keys", req.MemKeys, req.DiskKeys)
	}
	if req.MemKeys > s.cfg.MemKeys || req.DiskKeys > s.cfg.DiskKeys {
		return nil, fmt.Errorf("%w: mem %d/%d keys, disk %d/%d keys",
			ErrTooLarge, req.MemKeys, s.cfg.MemKeys, req.DiskKeys, s.cfg.DiskKeys)
	}
	// The id is reserved and the lock dropped, so status reads, admission and
	// other jobs' records proceed while the input file it names is fsynced.
	s.mu.Lock()
	err = s.accepting()
	id := req.ID
	if err == nil && id == 0 {
		s.nextID++
		id = s.nextID
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var ref *inputRef
	if req.ID == 0 && req.Input != nil && s.cfg.Journal != nil {
		path := s.inputPath(id)
		defer func() {
			if err != nil {
				os.Remove(path) // no record references it
			}
		}()
		if ref, err = writeInput(path, req.Input); err != nil {
			return nil, fmt.Errorf("sched: journal input: %w", err)
		}
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.accepting(); err != nil {
		return nil, err
	}
	var rs *recoveredState
	if req.ID != 0 {
		var ok bool
		rs, ok = s.pending[req.ID]
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrUnknownRecovered, req.ID)
		}
		delete(s.pending, req.ID)
	}
	j = &Job{
		id:        id,
		label:     req.Label,
		memKeys:   req.MemKeys,
		diskKeys:  req.DiskKeys,
		run:       req.Run,
		done:      make(chan struct{}),
		state:     Queued,
		submitted: time.Now(),
	}
	if rs != nil {
		sub := rs.sub
		j.subRec = &sub
		j.ckptRec = rs.ckpt
	} else if s.cfg.Journal != nil {
		data, err := json.Marshal(submittedData{
			Label:    req.Label,
			MemKeys:  req.MemKeys,
			DiskKeys: req.DiskKeys,
			Spec:     req.Spec,
			Input:    ref,
		})
		if err != nil {
			return nil, fmt.Errorf("sched: journal spec: %w", err)
		}
		rec, err := s.cfg.Journal.Append(journal.Submitted, id, data)
		if err != nil {
			return nil, fmt.Errorf("sched: journal submit: %w", err)
		}
		j.subRec = &rec
		if ref != nil {
			s.inputs[id] = ref.Bytes
		}
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.cond.Broadcast()
	return j, nil
}

// accepting reports why nothing can be queued right now.  s.mu held.
func (s *Scheduler) accepting() error {
	switch {
	case s.closed:
		return ErrClosed
	case len(s.queue) >= s.cfg.MaxQueue:
		return ErrQueueFull
	}
	return nil
}

// writeInput makes a job's input file and its directory entry durable and
// returns the reference its Submitted record carries.
func writeInput(path string, write func(io.Writer) error) (*inputRef, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sum := crc32.NewIEEE()
	bw := bufio.NewWriter(f)
	if err = write(io.MultiWriter(bw, sum)); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	st, serr := f.Stat()
	if err = errors.Join(err, serr, f.Close()); err != nil {
		return nil, err
	}
	journal.SyncDir(filepath.Dir(path))
	return &inputRef{File: filepath.Base(path), Bytes: st.Size(), CRC: sum.Sum32()}, nil
}

// Job returns the handle for id.
func (s *Scheduler) Job(id int) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job handle in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for id := 1; id <= s.nextID; id++ {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels the job with the given id, reporting whether it exists.
func (s *Scheduler) Cancel(id int) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.Cancel()
	// Wake the admitter so a canceled head leaves the queue promptly.
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// Stats returns a snapshot of the aggregate state.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted:        s.nextID,
		Completed:        s.completed,
		Failed:           s.failed,
		Canceled:         s.canceled,
		Queued:           len(s.queue),
		Running:          s.running,
		Suspended:        s.suspended,
		MemInUse:         s.mem.InUse(),
		MemCapacity:      s.mem.Capacity(),
		DiskInUse:        s.diskInUse,
		DiskCapacity:     s.cfg.DiskKeys,
		Workers:          s.cfg.Workers,
		CleanupFailures:  s.cleanupFailures,
		Recovered:        len(s.recoveredList),
		PendingRecovered: len(s.pending),
		OrphansSwept:     s.orphansSwept,
	}
	for _, n := range s.inputs {
		st.JournalInputBytes += n
	}
	return st
}

// Close stops admission, cancels every remaining job (queued jobs are
// journaled as canceled — a clean Close does not resurrect them), and
// waits for the running ones to finish.  It is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	if s.cfg.Journal != nil {
		_ = s.cfg.Journal.Close()
	}
}

// Drain stops admission and lets running jobs stop at their next durable
// checkpoint: Env.Checkpoint starts returning ErrDraining, and a job
// that aborts with it is Suspended — envelope released, scratch
// directory and journal records kept — so a restarted scheduler resumes
// it from that pass.  Queued jobs stay queued in the journal and
// re-admit on restart in their original order.  If ctx expires first,
// the remaining running jobs are canceled (suspending them at whatever
// checkpoint they last journaled).  Drain closes the journal and
// returns ctx.Err() when it had to force cancellation, nil on a clean
// drain.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		running := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			running = append(running, j)
		}
		s.mu.Unlock()
		for _, j := range running {
			j.Cancel()
		}
		<-done
	}
	if s.cfg.Journal != nil {
		_ = s.cfg.Journal.Close()
	}
	return forced
}

// admit is the admission goroutine: strict FIFO with head-of-line
// blocking on the budgets.
func (s *Scheduler) admit() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for !s.closed {
			if len(s.queue) == 0 {
				s.cond.Wait()
				continue
			}
			j := s.queue[0]
			j.mu.Lock()
			dropped := j.cancelRequested
			j.mu.Unlock()
			if dropped {
				s.queue = s.queue[1:]
				s.canceled++
				s.mu.Unlock()
				s.journalTerminal(j.id, Canceled, context.Canceled)
				s.finish(j, Canceled, context.Canceled)
				s.mu.Lock()
				continue
			}
			if s.fits(j) {
				break
			}
			s.cond.Wait()
		}
		if s.closed {
			if s.draining {
				// Drain keeps the queue: every queued job's submission
				// record stays live in the journal, so a restarted
				// scheduler re-admits them in this order.
				s.mu.Unlock()
				return
			}
			q := s.queue
			s.queue = nil
			s.canceled += len(q)
			s.mu.Unlock()
			for _, j := range q {
				s.journalTerminal(j.id, Canceled, context.Canceled)
				s.finish(j, Canceled, context.Canceled)
			}
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		// Only this goroutine reserves, so fits() cannot go stale between
		// the check and the reservation.
		if err := s.mem.Reserve(j.memKeys); err != nil {
			panic(fmt.Sprintf("sched: ledger reservation failed after fits(): %v", err))
		}
		s.diskInUse += j.diskKeys
		s.running++
		s.wg.Add(1)
		s.mu.Unlock()
		s.journalAdmitted(j)
		go s.runJob(j)
		s.mu.Lock()
	}
}

// fits reports whether the head job's envelope fits the free budgets.
// s.mu must be held.
func (s *Scheduler) fits(j *Job) bool {
	return s.mem.InUse()+j.memKeys <= s.mem.Capacity() &&
		s.diskInUse+j.diskKeys <= s.cfg.DiskKeys
}

// finish moves a never-admitted job to a terminal state.  The job holds
// no resources, so nothing is released.  s.mu must NOT be held.
func (s *Scheduler) finish(j *Job, state State, err error) {
	j.mu.Lock()
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// checkpoint journals a pass manifest for a running job.  During a drain
// it returns ErrDraining after recording the manifest, telling the job
// this boundary is where it stops.
func (s *Scheduler) checkpoint(j *Job, manifest []byte) error {
	if jr := s.cfg.Journal; jr != nil {
		s.jmu.Lock()
		rec, err := jr.Append(journal.Checkpoint, j.id, append([]byte(nil), manifest...))
		if err == nil {
			j.mu.Lock()
			j.ckptRec = &rec
			j.mu.Unlock()
			s.maybeCompact(0)
		}
		s.jmu.Unlock()
		// An append failure is deliberately non-fatal: the job keeps
		// running with degraded durability (recovery falls back to an
		// older manifest or to the input).
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return ErrDraining
	}
	return nil
}

// journalAdmitted records that a job reached Running.  Best-effort: the
// Admitted record is informational (a checkpoint also implies it).
func (s *Scheduler) journalAdmitted(j *Job) {
	jr := s.cfg.Journal
	if jr == nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	rec, err := jr.Append(journal.Admitted, j.id, nil)
	if err == nil {
		j.mu.Lock()
		j.admitRec = &rec
		j.mu.Unlock()
	}
}

// journalTerminal records a job's terminal state, compacts the log when
// it has outgrown CompactBytes and, the record durable, removes the job's
// input file.  s.mu and j.mu must NOT be held.
func (s *Scheduler) journalTerminal(id int, state State, err error) {
	jr := s.cfg.Journal
	if jr == nil {
		return
	}
	td := terminalData{State: state}
	if err != nil {
		td.Error = err.Error()
	}
	data, merr := json.Marshal(td)
	if merr != nil {
		data = nil
	}
	s.jmu.Lock()
	_, aerr := jr.Append(journal.Terminal, id, data)
	if aerr == nil {
		s.maybeCompact(id)
	}
	s.jmu.Unlock()
	if aerr != nil {
		return
	}
	s.mu.Lock()
	_, hasInput := s.inputs[id]
	delete(s.inputs, id)
	s.mu.Unlock()
	if hasInput {
		os.Remove(s.inputPath(id)) // a failure leaves an orphan the next life sweeps
	}
}

// maybeCompact snapshots the live record set when the log is big enough.
// s.jmu must be held (no append can race the gather); exclude names a
// job that just went terminal but whose handle state may lag.
func (s *Scheduler) maybeCompact(exclude int) {
	jr := s.cfg.Journal
	if jr == nil || s.cfg.CompactBytes <= 0 || jr.LogBytes() < s.cfg.CompactBytes {
		return
	}
	var live []journal.Record
	add := func(recs ...*journal.Record) {
		for _, r := range recs {
			if r != nil {
				live = append(live, *r)
			}
		}
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		if id == exclude {
			continue
		}
		j.mu.Lock()
		switch j.state {
		case Queued, Running, Suspended:
			add(j.subRec, j.admitRec, j.ckptRec)
		}
		j.mu.Unlock()
	}
	for _, rs := range s.pending {
		sub := rs.sub
		add(&sub, rs.ckpt)
	}
	s.mu.Unlock()
	sort.Slice(live, func(a, b int) bool { return live[a].Seq < live[b].Seq })
	_ = jr.Compact(live)
}

// runJob executes one admitted job and releases its envelope.
func (s *Scheduler) runJob(j *Job) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j.mu.Lock()
	if j.cancelRequested {
		j.mu.Unlock()
		s.release(j, Canceled, context.Canceled, "")
		return
	}
	j.state = Running
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()

	dir := ""
	var err error
	if s.cfg.Dir != "" {
		dir = filepath.Join(s.cfg.Dir, fmt.Sprintf("job-%04d", j.id))
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		env := Env{
			JobID:      j.id,
			Limiter:    s.lim,
			Workers:    s.cfg.Workers,
			Dir:        dir,
			Checkpoint: func(manifest []byte) error { return s.checkpoint(j, manifest) },
		}
		err = j.run(ctx, env)
	}
	state := Done
	if err != nil {
		state = Failed
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		j.mu.Lock()
		switch {
		case errors.Is(err, ErrDraining) || (draining && j.cancelRequested):
			state = Suspended
		case j.cancelRequested:
			state = Canceled
		}
		j.mu.Unlock()
	}
	s.release(j, state, err, dir)
}

// release returns an admitted job's envelope (removing its scratch
// directory first) and records its terminal state.  A cleanup failure is
// never silent: it is recorded on the job and counted in Stats, because a
// directory that survives its job leaks disk the budget ledger no longer
// accounts for.  A Suspended job keeps its scratch directory and gets no
// terminal journal record — its submission and checkpoint records stay
// live so the next life recovers it.
func (s *Scheduler) release(j *Job, state State, err error, dir string) {
	var cleanupErr error
	if dir != "" && state != Suspended {
		if rerr := s.cfg.RemoveDir(dir); rerr != nil {
			cleanupErr = fmt.Errorf("sched: scratch cleanup of job %d: %w", j.id, rerr)
		}
	}
	if state != Suspended {
		s.journalTerminal(j.id, state, err)
	}
	s.mem.Release(j.memKeys)
	s.mu.Lock()
	if cleanupErr != nil {
		s.cleanupFailures++
	}
	s.diskInUse -= j.diskKeys
	s.running--
	switch state {
	case Done:
		s.completed++
	case Failed:
		s.failed++
	case Canceled:
		s.canceled++
	case Suspended:
		s.suspended++
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	j.mu.Lock()
	j.state = state
	j.err = err
	j.cleanupErr = cleanupErr
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
	close(j.done)
}
