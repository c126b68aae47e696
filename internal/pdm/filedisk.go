package pdm

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/wordview"
)

// FileDisk is a Disk backed by a single ordinary file, with blocks stored as
// little-endian int64s at offset off·B·8.  A block call is one pread or
// pwrite of the caller's words in place (readWordsAt / writeWordsAt: no
// staging buffer, and no codec on little-endian hosts) on one persistent
// handle — no seek-then-read — so any number of goroutines may operate on
// the disk concurrently: the streaming layer's prefetchers and write-behind
// flushers run alongside the algorithm's own requests.  On little-endian
// Linux it is also an ExtentDisk (filedisk_linux.go), and an array of them
// moves each run of consecutive blocks a request puts on one disk — a
// pass's slot rows, a whole stripe's load — in one preadv/pwritev instead.
//
// The backing file is grown in chunks of growBlocks blocks ahead of the
// write frontier, so steady sequential writes extend the file's metadata
// O(N/growBlocks) times instead of every block.
type FileDisk struct {
	f      *os.File
	b      int
	blocks atomic.Int64 // block count = write frontier
	grown  atomic.Int64 // preallocated size of the file, in blocks
	growMu sync.Mutex   // serializes Truncate growth
}

// growBlocks is the file-preallocation chunk: the file is extended this many
// blocks at a time.
const growBlocks = 256

// NewFileDisk creates (truncating) a file-backed disk at path with block
// size b keys.
func NewFileDisk(path string, b int) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: creating file disk: %w", err)
	}
	return &FileDisk{f: f, b: b}, nil
}

// openFileDisk reopens an existing file-backed disk at path without
// truncating it: the write frontier is initialized from the file size,
// so blocks written by a previous process stay readable.  The resume
// path uses it to re-attach a job's surviving scratch files.
func openFileDisk(path string, b int) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: opening file disk: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck // surface the stat error instead
		return nil, fmt.Errorf("pdm: opening file disk: %w", err)
	}
	d := &FileDisk{f: f, b: b}
	blocks := st.Size() / (int64(b) * 8)
	d.blocks.Store(blocks)
	d.grown.Store(blocks)
	return d, nil
}

// OpenFileDisks reopens d existing file disks named disk0000.bin …
// inside dir without truncating them: each disk's write frontier comes
// from its file size, so blocks a previous process wrote stay readable.
func OpenFileDisks(dir string, d, b int) ([]Disk, error) {
	return makeDisks(dir, d, b, openFileDisk)
}

// NewFileDisks creates d file-backed disks named disk0000.bin … inside
// dir, with block size b keys.  NewFileArray and the facade's machine
// constructor share it.
func NewFileDisks(dir string, d, b int) ([]Disk, error) {
	return makeDisks(dir, d, b, NewFileDisk)
}

// makeDisks opens disk0000.bin … inside dir with open — the one naming
// scheme, so every backend produces interchangeable scratch directories —
// closing any already-opened disks on failure.
func makeDisks[T Disk](dir string, d, b int, open func(path string, b int) (T, error)) ([]Disk, error) {
	disks := make([]Disk, d)
	for i := range disks {
		dk, err := open(filepath.Join(dir, fmt.Sprintf("disk%04d.bin", i)), b)
		if err != nil {
			for _, prev := range disks[:i] {
				prev.Close() //nolint:errcheck // best-effort cleanup
			}
			return nil, err
		}
		disks[i] = dk
	}
	return disks, nil
}

// NewFileArray creates a PDM array of cfg.D file disks named disk0000.bin …
// inside dir.
func NewFileArray(cfg Config, dir string) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	disks, err := NewFileDisks(dir, cfg.D, cfg.B)
	if err != nil {
		return nil, err
	}
	return NewWithDisks(cfg, disks)
}

// readWordsAt fills dst from the little-endian int64s at byte offset off.
func readWordsAt(f *os.File, dst []int64, off int64) error {
	_, err := f.ReadAt(wordview.Bytes(dst), off)
	if !wordview.Native {
		wordview.LE(dst)
	}
	return err
}

// writeWordsAt stores src as little-endian int64s at byte offset off.
func writeWordsAt(f *os.File, src []int64, off int64) error {
	if !wordview.Native {
		src = slices.Clone(src) // the caller's words stay in host order
		wordview.LE(src)
	}
	_, err := f.WriteAt(wordview.Bytes(src), off)
	return err
}

// ReadBlock implements Disk.
func (d *FileDisk) ReadBlock(off int, dst []int64) error {
	if len(dst) != d.b {
		return ErrBadBlock
	}
	if off < 0 || int64(off) >= d.blocks.Load() {
		return fmt.Errorf("%w: read of block %d (disk holds %d)", ErrOutOfRange, off, d.blocks.Load())
	}
	if err := readWordsAt(d.f, dst, int64(off)*int64(d.b)*8); err != nil {
		return fmt.Errorf("pdm: file disk read: %w", err)
	}
	return nil
}

// WriteBlock implements Disk.
func (d *FileDisk) WriteBlock(off int, src []int64) error {
	if len(src) != d.b {
		return ErrBadBlock
	}
	if off < 0 {
		return fmt.Errorf("%w: write of block %d", ErrOutOfRange, off)
	}
	if err := d.grow(off + 1); err != nil {
		return err
	}
	if err := writeWordsAt(d.f, src, int64(off)*int64(d.b)*8); err != nil {
		return fmt.Errorf("pdm: file disk write: %w", err)
	}
	advanceFrontier(&d.blocks, off)
	return nil
}

// advanceFrontier moves a disk's write frontier (its block count) to cover
// off; concurrent writers race only forward.
func advanceFrontier(blocks *atomic.Int64, off int) {
	for {
		cur := blocks.Load()
		if int64(off) < cur || blocks.CompareAndSwap(cur, int64(off)+1) {
			return
		}
	}
}

// grow preallocates the backing file to hold at least want blocks, extending
// in growBlocks chunks.
func (d *FileDisk) grow(want int) error {
	if int64(want) <= d.grown.Load() {
		return nil
	}
	d.growMu.Lock()
	defer d.growMu.Unlock()
	if int64(want) <= d.grown.Load() {
		return nil
	}
	target := (int64(want) + growBlocks - 1) / growBlocks * growBlocks
	if err := d.f.Truncate(target * int64(d.b) * 8); err != nil {
		return fmt.Errorf("pdm: file disk grow: %w", err)
	}
	d.grown.Store(target)
	return nil
}

// Blocks implements Disk.
func (d *FileDisk) Blocks() int {
	return int(d.blocks.Load())
}

// Close implements Disk.  The file is trimmed to the written frontier (undo
// the chunked preallocation) and closed, but not removed, so callers can
// inspect the sorted output.
func (d *FileDisk) Close() error {
	if d.grown.Load() > d.blocks.Load() {
		if err := d.f.Truncate(d.blocks.Load() * int64(d.b) * 8); err != nil {
			d.f.Close() //nolint:errcheck // surface the truncate error instead
			return fmt.Errorf("pdm: file disk trim: %w", err)
		}
	}
	return d.f.Close()
}

// Path returns the backing file's name.
func (d *FileDisk) Path() string { return d.f.Name() }
