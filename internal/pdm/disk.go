package pdm

import (
	"fmt"
	"sync"
)

// Disk is one disk of a PDM array.  Offsets are in blocks; every transfer
// moves exactly one block of B keys.  Implementations must be safe for
// fully concurrent use: the streaming layer (internal/stream) overlaps
// prefetch and write-behind transfers with the algorithm's own requests,
// so one disk may see several concurrent operations (always on distinct
// blocks).
type Disk interface {
	// ReadBlock copies block off into dst (len(dst) == B).
	ReadBlock(off int, dst []int64) error
	// WriteBlock stores src (len(src) == B) as block off, extending the disk
	// if off is the first unused offset or beyond.
	WriteBlock(off int, src []int64) error
	// Blocks returns the number of blocks currently stored.
	Blocks() int
	// Close releases any resources held by the disk.
	Close() error
}

// ZeroCopyDisk is the optional capability a Disk may implement to serve
// blocks as direct word views into its own storage, skipping the caller's
// staging copy.  Views obey the borrow contract: they stay valid until the
// disk is closed (even across growth), read views must not be written
// through, and a write view's contents count as written the moment it is
// handed out.  The capability is advisory — ZeroCopy may report false on
// platforms or configurations where views cannot be served, in which case
// the borrow methods return an error and callers use the copying path.
type ZeroCopyDisk interface {
	Disk
	// ZeroCopy reports whether the borrow methods actually work.
	ZeroCopy() bool
	// ReadBlockZero returns a read-only view of block off.
	ReadBlockZero(off int) ([]int64, error)
	// WriteBlockZero extends the disk to cover off and returns a writable
	// view of block off for the caller to fill.
	WriteBlockZero(off int) ([]int64, error)
}

// ExtentDisk is the optional capability to move consecutive blocks off,
// off+1, … in one call, each under the ReadBlock/WriteBlock contract (a read
// past the frontier fails before anything moves); an empty run is a no-op.
type ExtentDisk interface {
	Disk
	ReadBlocks(off int, dst [][]int64) error
	WriteBlocks(off int, src [][]int64) error
}

// Backend names a disk implementation.  It is the one backend identity in
// the repository — the CLI flags, the job descriptor, and the planner's
// per-block software-overhead pricing all spell these values — and it
// changes wall-clock only: the PDM cost model (passes, steps, words) is
// backend-oblivious and the scratch files are byte-identical.
type Backend string

const (
	// BackendMem is the in-memory block store (MemDisk).
	BackendMem Backend = "mem"
	// BackendFile is read/write-syscall file disks (FileDisk): each run of
	// consecutive blocks a request moves on one disk pays one
	// preadv/pwritev of the caller's words in place (one pread/pwrite per
	// block where the host has no extent calls).
	BackendFile Backend = "file"
	// BackendMmap is memory-mapped file disks (MmapDisk): each block is a
	// page-cache copy, with zero-copy views on the streaming paths.
	BackendMmap Backend = "mmap"
)

// ParseBackend resolves a backend selector ("file", "mmap", or "" for the
// default) for a machine that is or is not file-backed: in-memory machines
// have only BackendMem and reject a file backend.
func ParseBackend(name string, fileBacked bool) (Backend, error) {
	switch k := Backend(name); {
	case name != "" && k != BackendFile && k != BackendMmap:
		return "", fmt.Errorf("unknown backend %q (want %q or %q)", name, BackendFile, BackendMmap)
	case !fileBacked && name != "":
		return "", fmt.Errorf("backend %q requires a scratch directory (in-memory machines have no disk backend)", name)
	case !fileBacked:
		return BackendMem, nil
	case k == BackendMmap:
		return BackendMmap, nil
	default:
		return BackendFile, nil
	}
}

// NewDisks creates d fresh (truncated) disks of block size b on this
// backend; dir is ignored by BackendMem.
func (k Backend) NewDisks(dir string, d, b int) ([]Disk, error) {
	switch k {
	case BackendFile:
		return NewFileDisks(dir, d, b)
	case BackendMmap:
		return NewMmapDisks(dir, d, b)
	default:
		return NewMemDisks(d, b), nil
	}
}

// MemDisk is an in-memory Disk: a growable store of B-key blocks.  It is the
// default backend for tests and benchmarks — exact, deterministic, and fast.
type MemDisk struct {
	mu     sync.Mutex
	b      int
	blocks [][]int64
}

// NewMemDisk returns an empty in-memory disk with block size b.
func NewMemDisk(b int) *MemDisk {
	return &MemDisk{b: b}
}

// ReadBlock implements Disk.
func (d *MemDisk) ReadBlock(off int, dst []int64) error {
	if len(dst) != d.b {
		return ErrBadBlock
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off >= len(d.blocks) || d.blocks[off] == nil {
		return fmt.Errorf("%w: read of block %d (disk holds %d)", ErrOutOfRange, off, len(d.blocks))
	}
	copy(dst, d.blocks[off])
	return nil
}

// WriteBlock implements Disk.
func (d *MemDisk) WriteBlock(off int, src []int64) error {
	if len(src) != d.b {
		return ErrBadBlock
	}
	if off < 0 {
		return fmt.Errorf("%w: write of block %d", ErrOutOfRange, off)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for off >= len(d.blocks) {
		d.blocks = append(d.blocks, nil)
	}
	if d.blocks[off] == nil {
		d.blocks[off] = make([]int64, d.b)
	}
	copy(d.blocks[off], src)
	return nil
}

// Blocks implements Disk.
func (d *MemDisk) Blocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// Close implements Disk.  It frees the block store.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks = nil
	return nil
}
