package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Grains: the share of an operation, in keys, one worker must get before
// the pool forks it.  Parallelism inside one sort or merge is taken only
// when every worker's share amortises the fork/join, the work the parallel
// form adds (splitter searches, an extra merge and copy pass) and the
// cross-core traffic; below the grain the pool calls the serial kernel
// directly, and above it an operation is as wide as its size pays for
// (width), never wider.  A memory load is M keys and M is 4Ki–64Ki on the
// machines the suite and bench/ build, so load-sized kernels run serially
// and the workers go to what is parallel at a coarser level: the streaming
// layer's I/O beside the compute, several jobs per scheduler.
//
// Each constant was chosen from the paired benchmarks in bench_test.go
// (BenchmarkWorkersSortKeys, BenchmarkKernelMultiMerge,
// BenchmarkWorkersPrimitives) on a 2-vCPU host whose second vCPU is
// sometimes quick to wake and sometimes not.  Awake, a fork wins from the
// sizes quoted below; asleep, every fork loses about a quarter.  So a grain
// sits where the awake win is clear and never under one load (64Ki keys),
// the size that runs hundreds of times per sort.  They are not knobs — a
// result never depends on them — and there is no flag, field or variable
// behind them.
const (
	// sortGrain: the serial LSD kernel sorts 64Ki keys in 0.8 ms.  Two
	// workers on 32Ki-key segments lost to it (1.03 against 0.83 ms), on
	// 64Ki-key segments they won 1.24× (1.8 against 2.3 ms), on 128Ki-key
	// segments 1.4× (4.0 against 5.5 ms), and at 1Mi 1.3× (23.6 against
	// 29–31 ms).  The 1Ki-key grain this replaces lost 3.5× at 4Ki, 3.5× at
	// 16Ki and 4.1× at 64Ki (workers=2: 160, 682 and 3600 µs against 45,
	// 196 and 879 serial).
	sortGrain = 1 << 17
	// mergeGrain is MultiMerge's grain, the rolling cleanup's two merges
	// per chunk included.  A merge share also pays CutLanes' k binary
	// searches per cut and a loser tree per worker; two workers on a
	// 64Ki-key group won 1.27× (0.67 against 0.85 ms) and lost on 32Ki
	// (0.40 against 0.35), and the fork cost runs-shaped and disjoint
	// groups 2–5× (64×1024 keys: 102 and 57 µs forked against 47 and 15
	// serial).
	mergeGrain = 1 << 16
	// forGrain is For's grain, in the caller's work units (keys touched).
	// It is set for its lightest bodies, a memmove or a transpose: forked
	// across two workers those lost at 64Ki keys (31 against 17 µs, 93
	// against 81) and won at 256Ki and above (transpose at 1Mi: 4.1
	// against 11.3 ms).
	forGrain = 1 << 16
)

// Limiter is a shared compute budget across pools: every unit of worker
// work (each busyDo leaf) on every attached pool must hold one of its slots
// while it executes.  The job scheduler attaches one pool per concurrent
// job to a single limiter, so J jobs fanning out w-wide each still execute
// at most slots leaves at once — the pool width stays a real global budget
// instead of multiplying per job.  Slots are held only around flat leaf
// work, never across a fork/join wait, so attached pools cannot deadlock
// however deeply their merges recurse.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter with the given number of slots; slots <= 0
// selects GOMAXPROCS.
func NewLimiter(slots int) *Limiter {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Limiter{sem: make(chan struct{}, slots)}
}

// Scratch is where a pool's sort kernel borrows its work space from: Alloc
// reserves n keys and returns a buffer of that length, or refuses with an
// error; Free hands the buffer back.  pdm.Arena is one, so the kernel's
// scratch is metered with every other in-core buffer of the array.
type Scratch interface {
	Alloc(n int) ([]int64, error)
	Free(buf []int64)
}

// Pool is a fixed-width fork/join worker pool.  Workers are spawned per
// operation (Go's scheduler makes goroutine reuse unnecessary); the pool
// carries the width, the observability counters, the Scratch its kernel
// borrows from, and optionally a shared Limiter arbitrating its execution
// slots against other pools.
type Pool struct {
	workers int
	lim     *Limiter
	scratch Scratch

	sections  atomic.Int64
	wallNanos atomic.Int64
	busyNanos atomic.Int64
}

// New returns a pool of the given width whose kernel scratch comes from
// the Go heap, one allocation per borrow; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	return NewLimited(workers, nil, nil)
}

// NewLimited is New with the pool's leaf execution gated by lim (nil means
// ungated) and its kernel scratch borrowed from scratch (nil means the Go
// heap).  Results are identical either way — the limiter only schedules
// when work runs, never how it is partitioned, and a borrow scratch refuses
// only changes how the load gets sorted (see SortKeys).
func NewLimited(workers int, lim *Limiter, scratch Scratch) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, lim: lim, scratch: scratch}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Counters returns the cumulative observability counters: parallel
// sections entered, their summed wall time, and the summed busy time of
// all worker goroutines (including each section's inline share).
func (p *Pool) Counters() (sections, wallNanos, busyNanos int64) {
	return p.sections.Load(), p.wallNanos.Load(), p.busyNanos.Load()
}

// ResetCounters zeroes the observability counters.
func (p *Pool) ResetCounters() {
	p.sections.Store(0)
	p.wallNanos.Store(0)
	p.busyNanos.Store(0)
}

// section starts timing one parallel section; the returned func ends it.
func (p *Pool) section() func() {
	t0 := time.Now()
	return func() {
		p.sections.Add(1)
		p.wallNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// busyDo runs f inline, adding its elapsed time to the busy counter.  With
// a limiter attached it holds one slot for the duration of f — busy time
// starts after the slot is acquired, so waiting for another pool's work
// never counts as utilization.  Every f passed here is flat (it neither
// forks nor waits), which is what makes slot-holding deadlock-free.
func (p *Pool) busyDo(f func()) {
	if p.lim != nil {
		p.lim.sem <- struct{}{}
		defer func() { <-p.lim.sem }()
	}
	t0 := time.Now()
	f()
	p.busyNanos.Add(time.Since(t0).Nanoseconds())
}

// spawn runs f on a new goroutine tracked by wg, recording its busy time.
// Only flat (non-forking) work may go through spawn — a forking f must use
// a plain goroutine and time its own leaves, or the children's work would
// be counted twice.
func (p *Pool) spawn(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.busyDo(f)
	}()
}

// width returns how many workers an operation over n keys is forked
// across: as many as get a full grain each, at most the pool's width, and 1
// — run it serially — when no two do.
func (p *Pool) width(n, grain int) int {
	w := n / grain
	if w > p.workers {
		w = p.workers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parDo fans f(i, lo, hi) out over w contiguous spans of [0, n) (fewer when
// n < w) and waits.  Callers pick w with width; parDo itself records no
// section.
func (p *Pool) parDo(w, n int, f func(i, lo, hi int)) {
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		i := i
		p.spawn(&wg, func() { f(i, i*n/w, (i+1)*n/w) })
	}
	p.busyDo(func() { f(0, 0, n/w) })
	wg.Wait()
}

// For runs f(w, lo, hi) over a partition of [0, n) into at most Workers
// contiguous spans, in parallel when the total work (in keys) gives every
// span a full grain and serially — one call f(0, 0, n) — otherwise.  f must
// only touch state owned by its span; the span index w is informational.
func (p *Pool) For(work, n int, f func(w, lo, hi int)) {
	w := p.width(work, forGrain)
	if w < 2 || n < 2 {
		f(0, 0, n)
		return
	}
	done := p.section()
	p.parDo(w, n, f)
	done()
}
