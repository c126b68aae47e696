package pdm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// Common errors returned by the simulator.
var (
	// ErrMemoryExceeded is returned by Arena.Alloc when an allocation would
	// push the total in-use memory past the configured capacity.
	ErrMemoryExceeded = errors.New("pdm: internal memory capacity exceeded")

	// ErrBadBlock is returned when a buffer passed to block I/O does not have
	// length exactly B.
	ErrBadBlock = errors.New("pdm: buffer length is not the block size")

	// ErrOutOfRange is returned for block offsets or key ranges outside the
	// allocated region.
	ErrOutOfRange = errors.New("pdm: address out of range")

	// ErrUnaligned is returned when a key range is not block aligned.
	ErrUnaligned = errors.New("pdm: key range not block aligned")
)

// Config describes a PDM instance.
type Config struct {
	// D is the number of independent disks.
	D int
	// B is the block size in keys.  One parallel I/O step moves at most one
	// block per disk.
	B int
	// Mem is the internal memory size M in keys.  The paper assumes
	// M = C·D·B for a small constant C.
	Mem int

	// SeekTime and TransferPerKey parameterize the optional simulated-time
	// model: each parallel I/O step costs SeekTime + B·TransferPerKey time
	// units.  Zero values disable the respective component.
	SeekTime       float64
	TransferPerKey float64

	// Pipeline configures the streaming I/O layer (internal/stream) built
	// on this array.  The zero value keeps every transfer synchronous.
	Pipeline PipelineConfig

	// Workers sizes the compute worker pool (internal/par) the algorithms
	// use for in-memory sorting, merging, and shuffling; zero selects
	// GOMAXPROCS.  Any value yields bit-identical output, statistics, and
	// I/O traces — the pool changes wall-clock only.
	Workers int

	// Limiter, when non-nil, attaches this array's compute pool to a
	// cross-array worker budget: the job scheduler passes one limiter to
	// every concurrent job's array so their pools share a single global
	// compute width instead of multiplying it.  Results are unaffected.
	Limiter *par.Limiter
}

// PipelineConfig sizes the pipelined I/O layer.  Depths are measured in
// stripes (D·B keys each); the staging buffers come out of the arena, so
// the capacity formula grows by PipelineStaging() — the memory cost of
// overlapping transfer with computation is charged like any other buffer.
// The JSON names are the job descriptor's "pipeline" object (decoding is
// case-insensitive, so journals that spelled the Go names still replay).
type PipelineConfig struct {
	// Prefetch is the number of stripe buffers a stream.Reader may fill
	// ahead of the consumer.  Zero means synchronous reads.
	Prefetch int `json:"prefetch"`
	// WriteBehind is the number of stripe buffers a stream.Writer may
	// hold in flight behind the producer.  Zero means synchronous writes.
	WriteBehind int `json:"writeBehind"`
}

// PipelineStaging returns the extra arena capacity, in keys, the pipeline
// configuration reserves: one stripe per prefetch or write-behind slot.
func (c Config) PipelineStaging() int {
	return (c.Pipeline.Prefetch + c.Pipeline.WriteBehind) * c.D * c.B
}

// memSlack scales the arena's algorithm envelope: the paper's cleanup
// phases hold two length-M chunks simultaneously (Section 5, step 2), i.e.
// the paper implicitly allows a small constant multiple of M during local
// sorting.
const memSlack = 2

// ArenaCapacity returns the arena capacity, in keys, an Array built from
// this configuration provisions: memSlack·M of algorithm envelope, one
// stripe of scatter/gather staging, and the pipeline's staging.  The
// scheduler reserves exactly this amount per job on its global memory
// ledger.
func (c Config) ArenaCapacity() int {
	return memSlack*c.Mem + c.D*c.B + c.PipelineStaging()
}

// C returns the memory-to-stripe ratio M/(D·B), the constant the paper
// calls C.
func (c Config) C() float64 { return float64(c.Mem) / float64(c.D*c.B) }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.D < 1:
		return fmt.Errorf("pdm: D = %d, want >= 1", c.D)
	case c.B < 1:
		return fmt.Errorf("pdm: B = %d, want >= 1", c.B)
	case c.Mem < c.D*c.B:
		return fmt.Errorf("pdm: M = %d smaller than one stripe D*B = %d", c.Mem, c.D*c.B)
	case c.Pipeline.Prefetch < 0 || c.Pipeline.WriteBehind < 0:
		return fmt.Errorf("pdm: pipeline depths %+v, want >= 0", c.Pipeline)
	case c.Workers < 0:
		return fmt.Errorf("pdm: Workers = %d, want >= 0", c.Workers)
	}
	return nil
}

// BlockAddr names one physical block: block Off on disk Disk.
type BlockAddr struct {
	Disk int
	Off  int
}

// Array is a PDM disk array: D disks plus the accounting state shared by all
// algorithms running against it (I/O statistics, memory arena, and the block
// allocator used by Stripe).
//
// The accounting state (stats, trace, block allocator) is guarded by mu so
// that the streaming layer's background transfer goroutines can run while
// the algorithm goroutine keeps charging I/O.
type Array struct {
	cfg   Config
	disks []Disk
	arena *Arena
	pool  *par.Pool

	// ctx, when bound, aborts every subsequent I/O once canceled — the
	// scheduler's cancellation path down into the pass helpers.
	ctx atomic.Pointer[context.Context]

	// zc is non-nil iff every disk serves zero-copy views (ZeroCopyDisk
	// with ZeroCopy() true); the borrow APIs in io.go require all-or-
	// nothing so a vectored request never mixes borrowed and copied blocks.
	zc []ZeroCopyDisk

	// fanOut is true iff some disk parks its caller (LatencyDisk): only
	// then does transferV fork one goroutine per participating disk.
	fanOut bool

	mu    sync.Mutex
	stats Stats
	alloc rowAllocator
	trace []TraceOp

	// ckpt/resume are the pass-boundary durability seam (checkpoint.go):
	// PassDone hands completed-pass manifests to ckpt, and TakeResume
	// lets the owning algorithm claim resume to skip finished passes.
	ckpt           Checkpointer
	resume         *Checkpoint
	resumeConsumed bool
}

// NewMemDisks creates d in-memory disks with block size b keys.
func NewMemDisks(d, b int) []Disk {
	disks := make([]Disk, d)
	for i := range disks {
		disks[i] = NewMemDisk(b)
	}
	return disks
}

// New creates an Array backed by fresh in-memory disks.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewWithDisks(cfg, NewMemDisks(cfg.D, cfg.B))
}

// NewWithDisks creates an Array from caller-provided disks (for example
// FileDisk instances).  len(disks) must equal cfg.D.  The compute pool's
// sort kernel is resolved here, once, from the memory-load size
// (par.AutoKernel(cfg.Mem)): it is a function of M, not an option.
func NewWithDisks(cfg Config, disks []Disk) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(disks) != cfg.D {
		return nil, fmt.Errorf("pdm: got %d disks, config says D = %d", len(disks), cfg.D)
	}
	a := &Array{
		cfg:   cfg,
		disks: disks,
		arena: NewArena(cfg.ArenaCapacity()),
		pool:  par.NewWithKernel(cfg.Workers, cfg.Limiter, par.AutoKernel(cfg.Mem)),
	}
	zc := make([]ZeroCopyDisk, 0, len(disks))
	for _, d := range disks {
		if _, parks := d.(LatencyDisk); parks {
			a.fanOut = true
		}
		if z, ok := d.(ZeroCopyDisk); ok && z.ZeroCopy() {
			zc = append(zc, z)
		}
	}
	if len(zc) == len(disks) {
		a.zc = zc
	}
	return a, nil
}

// BindContext ties subsequent I/O on the array to ctx: once ctx is
// canceled, every ReadV, WriteV, and TransferV — and therefore every pass
// helper and streaming transfer built on them — fails with an error
// wrapping ctx.Err(), and every pass helper releases its buffers on that
// error path, so a canceled run leaves the arena fully drained and its
// memory envelope immediately reusable.  The binding lasts until the next
// BindContext (a nil ctx unbinds); an array runs one sort at a time, so the
// scheduler binds each job's context once, before the job's entry point.
// Accounting stays honest: a request rejected here charges no steps and
// records no trace, exactly like any other validation failure.
func (a *Array) BindContext(ctx context.Context) {
	if ctx == nil {
		a.ctx.Store(nil)
		return
	}
	a.ctx.Store(&ctx)
}

// CtxErr reports whether the bound context (if any) has been canceled,
// wrapping its error so callers can errors.Is against context.Canceled.
func (a *Array) CtxErr() error {
	p := a.ctx.Load()
	if p == nil {
		return nil
	}
	if err := (*p).Err(); err != nil {
		return fmt.Errorf("pdm: aborted: %w", err)
	}
	return nil
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// D returns the number of disks.
func (a *Array) D() int { return a.cfg.D }

// B returns the block size in keys.
func (a *Array) B() int { return a.cfg.B }

// Mem returns the nominal internal memory size M in keys.
func (a *Array) Mem() int { return a.cfg.Mem }

// StripeWidth returns D·B, the number of keys moved by one fully parallel
// I/O step.
func (a *Array) StripeWidth() int { return a.cfg.D * a.cfg.B }

// Arena returns the internal-memory arena shared by algorithms on this array.
func (a *Array) Arena() *Arena { return a.arena }

// Pipeline returns the array's pipeline configuration.
func (a *Array) Pipeline() PipelineConfig { return a.cfg.Pipeline }

// Pool returns the compute worker pool shared by algorithms on this array.
func (a *Array) Pool() *par.Pool { return a.pool }

// Workers returns the resolved width of the compute worker pool.
func (a *Array) Workers() int { return a.pool.Workers() }

// Stats returns a snapshot of the accumulated I/O statistics, with the
// compute pool's observability counters folded in.
func (a *Array) Stats() Stats {
	a.mu.Lock()
	s := a.stats
	a.mu.Unlock()
	s.ComputeSections, s.ComputeWallNanos, s.ComputeBusyNanos = a.pool.Counters()
	return s
}

// DiskFootprint returns the high-water on-disk footprint in keys: the rows
// the block allocator has ever handed out (they are reused but never
// shrunk) times the stripe width.  The scheduler checks it against each
// job's admitted disk envelope.
func (a *Array) DiskFootprint() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alloc.next * a.cfg.D * a.cfg.B
}

// ResetStats zeroes the I/O statistics and the compute counters (the arena
// and disk contents are untouched).
func (a *Array) ResetStats() {
	a.mu.Lock()
	a.stats = Stats{}
	a.mu.Unlock()
	a.pool.ResetCounters()
}

// Close closes all disks, returning the first error encountered.
func (a *Array) Close() error {
	var first error
	for _, d := range a.disks {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
