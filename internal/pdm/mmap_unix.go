//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package pdm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/wordview"
)

// MmapDisk is a Disk backed by a single ordinary file that is memory-mapped
// (MAP_SHARED) rather than accessed through read/write syscalls.  The
// on-disk format is identical to FileDisk — little-endian int64s at offset
// off·B·8 — so the two backends are interchangeable on the same scratch
// directory.  On little-endian architectures the mapping is reinterpreted
// in place as []int64, making ReadBlock/WriteBlock a single copy and the
// borrow APIs (ReadBlockZero/WriteBlockZero) completely copy-free; on
// big-endian architectures blocks are encoded/decoded per word against the
// mapped bytes and the borrow APIs report unsupported.
//
// The backing file grows in chunks like FileDisk, but each growth doubles
// the mapped size (geometric growth bounds remapping to O(log N) times).
// Superseded mappings are kept mapped until Close: a borrowed view handed
// out before a growth still points into an old mapping, and MAP_SHARED
// mappings of the same file are coherent, so the old view stays valid and
// sees all subsequent writes.  The total kept-alive address space is at
// most 2× the final file size — address space, not resident memory.
type MmapDisk struct {
	f      *os.File
	b      int
	blocks atomic.Int64 // block count = write frontier
	grown  atomic.Int64 // mapped/preallocated size of the file, in blocks
	growMu sync.Mutex   // serializes growth and guards old
	cur    atomic.Pointer[mapping]
	old    []*mapping // superseded mappings, unmapped at Close
}

// mapping is one mmap of the backing file from offset 0.
type mapping struct {
	bytes []byte
	words []int64 // in-place view of bytes; nil on big-endian architectures
}

// NewMmapDisk creates (truncating) an mmap-backed disk at path with block
// size b keys.
func NewMmapDisk(path string, b int) (*MmapDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: creating mmap disk: %w", err)
	}
	return &MmapDisk{f: f, b: b}, nil
}

// ReadBlock implements Disk.
func (d *MmapDisk) ReadBlock(off int, dst []int64) error {
	if len(dst) != d.b {
		return ErrBadBlock
	}
	if off < 0 || int64(off) >= d.blocks.Load() {
		return fmt.Errorf("%w: read of block %d (disk holds %d)", ErrOutOfRange, off, d.blocks.Load())
	}
	m := d.cur.Load()
	if m.words != nil {
		copy(dst, m.words[off*d.b:(off+1)*d.b])
		return nil
	}
	base := off * d.b * 8
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(m.bytes[base+8*i:]))
	}
	return nil
}

// WriteBlock implements Disk.
func (d *MmapDisk) WriteBlock(off int, src []int64) error {
	if len(src) != d.b {
		return ErrBadBlock
	}
	if off < 0 {
		return fmt.Errorf("%w: write of block %d", ErrOutOfRange, off)
	}
	if err := d.grow(off + 1); err != nil {
		return err
	}
	m := d.cur.Load()
	if m.words != nil {
		copy(m.words[off*d.b:(off+1)*d.b], src)
	} else {
		base := off * d.b * 8
		for i, v := range src {
			binary.LittleEndian.PutUint64(m.bytes[base+8*i:], uint64(v))
		}
	}
	d.advance(off)
	return nil
}

// advance moves the write frontier to cover off.
func (d *MmapDisk) advance(off int) {
	for {
		cur := d.blocks.Load()
		if int64(off) < cur || d.blocks.CompareAndSwap(cur, int64(off)+1) {
			return
		}
	}
}

// ZeroCopy implements ZeroCopyDisk: borrowed views are available whenever
// the mapping can be reinterpreted as words in place.
func (d *MmapDisk) ZeroCopy() bool { return wordview.Native }

// ReadBlockZero implements ZeroCopyDisk: it returns a direct view of block
// off, valid until Close.  The caller must not write through it.
func (d *MmapDisk) ReadBlockZero(off int) ([]int64, error) {
	if !wordview.Native {
		return nil, errNoZeroCopy
	}
	if off < 0 || int64(off) >= d.blocks.Load() {
		return nil, fmt.Errorf("%w: read of block %d (disk holds %d)", ErrOutOfRange, off, d.blocks.Load())
	}
	m := d.cur.Load()
	lo := off * d.b
	return m.words[lo : lo+d.b : lo+d.b], nil
}

// WriteBlockZero implements ZeroCopyDisk: it grows the disk to cover off,
// advances the write frontier, and returns a writable view of block off
// for the caller to fill, valid until Close.
func (d *MmapDisk) WriteBlockZero(off int) ([]int64, error) {
	if !wordview.Native {
		return nil, errNoZeroCopy
	}
	if off < 0 {
		return nil, fmt.Errorf("%w: write of block %d", ErrOutOfRange, off)
	}
	if err := d.grow(off + 1); err != nil {
		return nil, err
	}
	d.advance(off)
	m := d.cur.Load()
	lo := off * d.b
	return m.words[lo : lo+d.b : lo+d.b], nil
}

// grow extends the backing file and its mapping to hold at least want
// blocks: growBlocks-chunked like FileDisk.grow, plus doubling so the
// number of remaps stays logarithmic in the final size.
func (d *MmapDisk) grow(want int) error {
	if int64(want) <= d.grown.Load() {
		return nil
	}
	d.growMu.Lock()
	defer d.growMu.Unlock()
	prev := d.grown.Load()
	if int64(want) <= prev {
		return nil
	}
	target := (int64(want) + growBlocks - 1) / growBlocks * growBlocks
	if dbl := 2 * prev; target < dbl {
		target = dbl
	}
	if err := d.f.Truncate(target * int64(d.b) * 8); err != nil {
		return fmt.Errorf("pdm: mmap disk grow: %w", err)
	}
	bs, err := syscall.Mmap(int(d.f.Fd()), 0, int(target)*d.b*8,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("pdm: mmap disk map: %w", err)
	}
	m := &mapping{bytes: bs}
	if wordview.Native {
		m.words = wordview.Words(bs)
	}
	if old := d.cur.Load(); old != nil {
		d.old = append(d.old, old)
	}
	d.cur.Store(m)
	d.grown.Store(target)
	return nil
}

// Blocks implements Disk.
func (d *MmapDisk) Blocks() int {
	return int(d.blocks.Load())
}

// Close implements Disk.  Every mapping (current and superseded) is
// unmapped — borrowed views die here — then the file is trimmed to the
// written frontier and closed, but not removed, so callers can inspect
// the sorted output.
func (d *MmapDisk) Close() error {
	d.growMu.Lock()
	defer d.growMu.Unlock()
	var first error
	if m := d.cur.Swap(nil); m != nil {
		d.old = append(d.old, m)
	}
	for _, m := range d.old {
		if err := syscall.Munmap(m.bytes); err != nil && first == nil {
			first = fmt.Errorf("pdm: mmap disk unmap: %w", err)
		}
	}
	d.old = nil
	if d.grown.Load() > d.blocks.Load() {
		if err := d.f.Truncate(d.blocks.Load() * int64(d.b) * 8); err != nil {
			d.f.Close() //nolint:errcheck // surface the truncate error instead
			if first == nil {
				first = fmt.Errorf("pdm: mmap disk trim: %w", err)
			}
			return first
		}
	}
	if err := d.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Path returns the backing file's name.
func (d *MmapDisk) Path() string { return d.f.Name() }
