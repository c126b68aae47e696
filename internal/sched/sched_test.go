package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pdm"
)

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d stuck in %v, want %v", j.ID(), j.State(), want)
}

func TestLifecycleAndBudgets(t *testing.T) {
	s, err := New(Config{MemKeys: 1000, DiskKeys: 10000, Workers: 2, MaxQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	started := make(chan int, 8)
	mk := func(mem int) Request {
		return Request{MemKeys: mem, DiskKeys: 100, Run: func(ctx context.Context, env Env) error {
			started <- env.JobID
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}}
	}
	// Two 400-key jobs fit together; the third (400) must wait for a release.
	j1, err := s.Submit(mk(400))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(mk(400))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s.Submit(mk(400))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	waitState(t, j1, Running)
	waitState(t, j2, Running)
	if st := s.Stats(); st.MemInUse != 800 || st.Running != 2 || st.Queued != 1 {
		t.Fatalf("stats with two running = %+v", st)
	}
	if j3.State() != Queued {
		t.Fatalf("third job state = %v, want Queued (backpressure)", j3.State())
	}
	close(release)
	for _, j := range []*Job{j1, j2, j3} {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
	if st := s.Stats(); st.MemInUse != 0 || st.DiskInUse != 0 || st.Completed != 3 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	// Every job needs the whole memory budget, so they must run strictly
	// one at a time in submission order.
	s, err := New(Config{MemKeys: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var order []int
	const n = 6
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		jobs[i], err = s.Submit(Request{MemKeys: 100, Run: func(ctx context.Context, env Env) error {
			mu.Lock()
			order = append(order, env.JobID)
			mu.Unlock()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range order {
		if id != i+1 {
			t.Fatalf("admission order = %v, want FIFO", order)
		}
	}
}

func TestSubmitRejections(t *testing.T) {
	s, err := New(Config{MemKeys: 100, DiskKeys: 1000, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(ctx context.Context, env Env) error { return nil }
	if _, err := s.Submit(Request{MemKeys: 101, Run: nop}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized mem envelope: %v", err)
	}
	if _, err := s.Submit(Request{MemKeys: 1, DiskKeys: 1001, Run: nop}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized disk envelope: %v", err)
	}
	if _, err := s.Submit(Request{MemKeys: 0, Run: nop}); err == nil {
		t.Fatal("zero envelope accepted")
	}
	if _, err := s.Submit(Request{MemKeys: 1}); err == nil {
		t.Fatal("nil Run accepted")
	}
	// Fill the queue behind a blocker to trigger ErrQueueFull.
	release := make(chan struct{})
	blocker, err := s.Submit(Request{MemKeys: 100, Run: func(ctx context.Context, env Env) error {
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, Running)
	if _, err := s.Submit(Request{MemKeys: 100, Run: nop}); err != nil {
		t.Fatalf("first queued job rejected: %v", err)
	}
	if _, err := s.Submit(Request{MemKeys: 100, Run: nop}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue overflow: %v", err)
	}
	close(release)
	s.Close()
	if _, err := s.Submit(Request{MemKeys: 1, Run: nop}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestCancelQueuedNeverHoldsResources(t *testing.T) {
	s, err := New(Config{MemKeys: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := make(chan struct{})
	blocker, err := s.Submit(Request{MemKeys: 100, Run: func(ctx context.Context, env Env) error {
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, Running)
	var ran atomic.Bool
	queued, err := s.Submit(Request{MemKeys: 100, Run: func(ctx context.Context, env Env) error {
		ran.Store(true)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(queued.ID())
	waitState(t, queued, Canceled)
	if ran.Load() {
		t.Fatal("canceled queued job ran")
	}
	close(release)
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MemInUse != 0 || st.Canceled != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, err := New(Config{MemKeys: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(Request{MemKeys: 50, Run: func(ctx context.Context, env Env) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Running)
	if !s.Cancel(j.ID()) {
		t.Fatal("Cancel did not find the job")
	}
	waitState(t, j, Canceled)
	if err := j.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("terminal error = %v", err)
	}
	if st := s.Stats(); st.MemInUse != 0 || st.Canceled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJobScratchDirLifetime(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{MemKeys: 100, Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dir string
	j, err := s.Submit(Request{MemKeys: 10, Run: func(ctx context.Context, env Env) error {
		dir = env.Dir
		if dir == "" {
			return errors.New("no scratch dir")
		}
		return os.WriteFile(filepath.Join(dir, "scratch.bin"), []byte("x"), 0o644)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("scratch dir %s survived the job (stat err %v)", dir, err)
	}
}

// TestScratchCleanupFailureIsRecorded drives a job whose scratch
// directory cannot be deleted and checks the failure is not silent: it is
// counted in Stats, carried on the job handle, and the envelope is still
// released so the scheduler keeps admitting.  The undeletable directory
// is injected through the Config.RemoveDir seam (a chmod-based
// read-only directory does not stop the root user these tests may run
// as); a real permission failure takes exactly this path through release.
func TestScratchCleanupFailureIsRecorded(t *testing.T) {
	root := t.TempDir()
	undeletable := errors.New("unlinkat: operation not permitted")
	var failNext atomic.Bool
	s, err := New(Config{
		MemKeys: 100,
		Dir:     root,
		RemoveDir: func(dir string) error {
			if failNext.Load() {
				return fmt.Errorf("%w: %s", undeletable, dir)
			}
			return os.RemoveAll(dir)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	failNext.Store(true)
	j, err := s.Submit(Request{MemKeys: 10, Run: func(ctx context.Context, env Env) error {
		return os.WriteFile(filepath.Join(env.Dir, "scratch.bin"), []byte("x"), 0o644)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.State() != Done {
		t.Fatalf("cleanup failure flipped the job to %v", j.State())
	}
	cerr := j.CleanupErr()
	if cerr == nil || !errors.Is(cerr, undeletable) {
		t.Fatalf("CleanupErr = %v, want the removal failure", cerr)
	}
	st := s.Stats()
	if st.CleanupFailures != 1 {
		t.Fatalf("CleanupFailures = %d, want 1", st.CleanupFailures)
	}
	if st.MemInUse != 0 || st.DiskInUse != 0 {
		t.Fatalf("cleanup failure held the envelope: %+v", st)
	}

	// A healthy job afterwards cleans up and does not bump the counter.
	failNext.Store(false)
	j2, err := s.Submit(Request{MemKeys: 10, Run: func(ctx context.Context, env Env) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j2.CleanupErr() != nil {
		t.Fatalf("healthy job recorded cleanup error %v", j2.CleanupErr())
	}
	if got := s.Stats().CleanupFailures; got != 1 {
		t.Fatalf("CleanupFailures = %d after a healthy job, want still 1", got)
	}
}

// TestStormSubmitCancelPoll is the -race storm: many goroutines submit,
// cancel, and poll concurrently while jobs allocate from their reserved
// envelopes and hand their machines on to later jobs of their envelope
// (Env.Keep, Env.Idle), and the budgets, idle machines included, must
// never be oversubscribed and must return to zero, and every machine must
// be closed exactly once.
func TestStormSubmitCancelPoll(t *testing.T) {
	const (
		memBudget = 4096
		jobs      = 60
	)
	s, err := New(Config{MemKeys: memBudget, DiskKeys: 1 << 20, Workers: 4, MaxQueue: jobs, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var over atomic.Bool
	var (
		machinesMu sync.Mutex
		machines   []*machine // every machine a job built, each to be closed once
	)
	handles := make([]*Job, jobs)
	var subWG, wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			mem := 256 + 128*(i%4)
			h, err := s.Submit(Request{
				Label:    fmt.Sprintf("storm-%d", i),
				MemKeys:  mem,
				DiskKeys: 1024,
				Shape:    fmt.Sprint(mem), // jobs of one envelope share idle machines
				Run: func(ctx context.Context, env Env) error {
					m, _ := env.Idle.(*machine)
					if m == nil {
						m = &machine{}
						machinesMu.Lock()
						machines = append(machines, m)
						machinesMu.Unlock()
					}
					// The job's own arena is its reserved envelope; the
					// ledger must show the sum of all running envelopes.
					arena := pdm.NewArena(mem)
					buf, err := arena.Alloc(mem)
					if err != nil {
						return err
					}
					defer arena.Free(buf)
					if use := s.Ledger().InUse(); use > memBudget {
						over.Store(true)
					}
					select {
					case <-time.After(time.Duration(rand.Intn(3)) * time.Millisecond):
					case <-ctx.Done():
						m.Close()
						return ctx.Err()
					}
					env.Keep(m, 512)
					return nil
				},
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			handles[i] = h
			if i%5 == 0 {
				h.Cancel() // race cancel against queueing and running
			}
		}()
	}
	// Concurrent pollers.
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.MemInUse+st.IdleMem > st.MemCapacity || st.DiskInUse+st.IdleDisk > st.DiskCapacity {
					over.Store(true)
				}
				for _, j := range s.Jobs() {
					_ = j.State()
					_, _ = j.Err(), j.Label()
				}
			}
		}()
	}
	// Wait for all jobs to finish.
	subWG.Wait()
	deadline := time.After(30 * time.Second)
	for _, h := range handles {
		if h == nil {
			continue // submit error already reported
		}
		select {
		case <-h.Done():
		case <-deadline:
			t.Fatalf("storm timed out waiting for job %d in %v", h.ID(), h.State())
		}
	}
	close(stop)
	wg.Wait()
	if over.Load() {
		t.Fatal("a budget was oversubscribed during the storm")
	}
	st := s.Stats()
	if st.MemInUse != 0 || st.DiskInUse != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("budgets not drained: %+v", st)
	}
	if st.Completed+st.Canceled+st.Failed != jobs {
		t.Fatalf("job accounting: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed", st.Failed)
	}
	if st.Reused == 0 {
		t.Fatal("no job took an idle machine")
	}
	s.Close()
	for i, m := range machines {
		if n := m.closed.Load(); n != 1 {
			t.Fatalf("machine %d of %d closed %d times, want once", i, len(machines), n)
		}
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	s, err := New(Config{MemKeys: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit(Request{MemKeys: 100, Run: func(ctx context.Context, env Env) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running)
	queued, err := s.Submit(Request{MemKeys: 100, Run: func(ctx context.Context, env Env) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := running.State(); got != Canceled {
		t.Fatalf("running job after Close = %v", got)
	}
	if got := queued.State(); got != Canceled {
		t.Fatalf("queued job after Close = %v", got)
	}
	if st := s.Stats(); st.MemInUse != 0 || st.Canceled != 2 {
		t.Fatalf("stats after Close = %+v", st)
	}
}
