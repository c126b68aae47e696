//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package pdm

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/wordview"
)

func TestMmapDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := newMmapDisk(dir+"/d0.bin", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := []int64{-1, 0, 1, 1 << 40}
	if err := d.WriteBlock(2, src); err != nil {
		t.Fatal(err)
	}
	if got := d.Blocks(); got != 3 {
		t.Fatalf("Blocks = %d, want 3", got)
	}
	dst := make([]int64, 4)
	if err := d.ReadBlock(2, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("key %d = %d, want %d", i, dst[i], src[i])
		}
	}
	if err := d.ReadBlock(5, dst); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: err = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadBlock(0, make([]int64, 1)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad buffer: err = %v, want ErrBadBlock", err)
	}
	if err := d.WriteBlock(0, make([]int64, 1)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad write buffer: err = %v, want ErrBadBlock", err)
	}
	if d.Path() == "" {
		t.Fatal("Path is empty")
	}
}

// TestMmapDiskGrowthAndTrim writes across several growth chunks — forcing
// remaps — and checks every block survives them, then checks Close trims
// the chunked preallocation back to the written frontier.
func TestMmapDiskGrowthAndTrim(t *testing.T) {
	const b = 8
	path := t.TempDir() + "/d0.bin"
	d, err := newMmapDisk(path, b)
	if err != nil {
		t.Fatal(err)
	}
	n := 3*growBlocks + 5 // crosses chunk boundaries and the doubling path
	blk := make([]int64, b)
	for off := 0; off < n; off++ {
		for i := range blk {
			blk[i] = int64(off*b + i)
		}
		if err := d.WriteBlock(off, blk); err != nil {
			t.Fatalf("write %d: %v", off, err)
		}
	}
	if got := d.Blocks(); got != n {
		t.Fatalf("Blocks = %d, want %d", got, n)
	}
	for off := 0; off < n; off++ {
		if err := d.ReadBlock(off, blk); err != nil {
			t.Fatalf("read %d: %v", off, err)
		}
		for i := range blk {
			if blk[i] != int64(off*b+i) {
				t.Fatalf("block %d word %d = %d, want %d", off, i, blk[i], off*b+i)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * b * 8); st.Size() != want {
		t.Fatalf("file size after Close = %d, want %d (trimmed to frontier)", st.Size(), want)
	}
}

// TestMmapDiskBorrowViews exercises the zero-copy contract: borrowed
// views alias the store directly, and a view handed out before a growth
// remap stays valid and coherent (MAP_SHARED mappings of one file see
// each other's writes).
func TestMmapDiskBorrowViews(t *testing.T) {
	if !wordview.Native {
		t.Skip("no in-place word views on this architecture")
	}
	const b = 8
	d, err := newMmapDisk(t.TempDir()+"/d0.bin", b)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	w, err := d.WriteBlockZero(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != b || cap(w) != b {
		t.Fatalf("write view len/cap = %d/%d, want %d/%d", len(w), cap(w), b, b)
	}
	for i := range w {
		w[i] = int64(100 + i)
	}
	if got := d.Blocks(); got != 1 {
		t.Fatalf("Blocks after WriteBlockZero = %d, want 1", got)
	}
	r, err := d.ReadBlockZero(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if r[i] != int64(100+i) {
			t.Fatalf("read view word %d = %d, want %d", i, r[i], 100+i)
		}
	}

	// Force a remap by growing far past the first chunk, then write block 0
	// through the new mapping: the old borrowed view must see the update.
	if err := d.WriteBlock(4*growBlocks, make([]int64, b)); err != nil {
		t.Fatal(err)
	}
	fresh := make([]int64, b)
	for i := range fresh {
		fresh[i] = int64(1000 + i)
	}
	if err := d.WriteBlock(0, fresh); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if r[i] != int64(1000+i) {
			t.Fatalf("stale borrowed view after remap: word %d = %d, want %d", i, r[i], 1000+i)
		}
	}

	if _, err := d.ReadBlockZero(4*growBlocks + 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("borrow past frontier: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.WriteBlockZero(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("borrow negative block: err = %v, want ErrOutOfRange", err)
	}
}

// TestMmapDiskBytesMatchFileDisk pins the interchangeable on-disk format:
// the same writes through FileDisk and MmapDisk leave byte-identical
// files after Close.
func TestMmapDiskBytesMatchFileDisk(t *testing.T) {
	const b = 16
	dir := t.TempDir()
	fd, err := NewFileDisk(dir+"/file.bin", b)
	if err != nil {
		t.Fatal(err)
	}
	md, err := newMmapDisk(dir+"/mmap.bin", b)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]int64, b)
	for off := 0; off < 10; off++ {
		for i := range blk {
			blk[i] = int64(off)<<32 - int64(i*7)
		}
		if err := fd.WriteBlock(off, blk); err != nil {
			t.Fatal(err)
		}
		if err := md.WriteBlock(off, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := md.Close(); err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(dir + "/file.bin")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(dir + "/mmap.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, mb) {
		t.Fatalf("on-disk bytes differ: file %d bytes, mmap %d bytes", len(fb), len(mb))
	}
}

// TestMmapDiskGrowFailure checks the error paths when the backing fd dies
// under the disk: growth and the Close trim must surface errors instead
// of corrupting state.
func TestMmapDiskGrowFailure(t *testing.T) {
	d, err := newMmapDisk(t.TempDir()+"/d0.bin", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(0, make([]int64, 4)); err == nil || !strings.Contains(err.Error(), "grow") {
		t.Fatalf("write on dead fd: err = %v, want grow error", err)
	}
	if _, err := d.WriteBlockZero(0); err == nil {
		t.Fatal("borrow-write on dead fd succeeded")
	}
}

func TestNewMmapArrayEndToEnd(t *testing.T) {
	cfg := Config{D: 3, B: 4, Mem: 48}
	a, err := NewMmapArray(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n := a.StripeWidth() * 2
	s, err := a.NewStripe(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i * 3)
	}
	if err := s.WriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, n)
	if err := s.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], data[i])
		}
	}
	if st := a.Stats(); st.WriteSteps != 2 || st.ReadSteps != 2 {
		t.Fatalf("stats = %+v, want 2 read and 2 write steps", st)
	}
}

// TestArrayBorrowReadV checks the Array-level borrow API: on an mmap
// array the views alias the written data; on a MemDisk array the
// capability is absent and the borrow calls refuse.
func TestArrayBorrowReadV(t *testing.T) {
	cfg := Config{D: 2, B: 4, Mem: 16}
	a, err := NewMmapArray(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !wordview.Native {
		if a.ZeroCopy() {
			t.Fatal("ZeroCopy true without word views")
		}
		t.Skip("no in-place word views on this architecture")
	}
	if !a.ZeroCopy() {
		t.Fatal("mmap array does not report ZeroCopy")
	}
	addrs := []BlockAddr{{Disk: 0, Off: 0}, {Disk: 1, Off: 0}}
	bufs := [][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	if err := a.WriteV(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	views := make([][]int64, len(addrs))
	if err := a.BorrowReadV(addrs, views); err != nil {
		t.Fatal(err)
	}
	for k := range views {
		for i := range views[k] {
			if views[k][i] != bufs[k][i] {
				t.Fatalf("view %d word %d = %d, want %d", k, i, views[k][i], bufs[k][i])
			}
		}
	}
	if _, err := a.BorrowWrite(BlockAddr{Disk: 5, Off: 0}); err == nil {
		t.Fatal("borrow-write on bad disk index succeeded")
	}

	mem, err := New(Config{D: 2, B: 4, Mem: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if mem.ZeroCopy() {
		t.Fatal("MemDisk array reports ZeroCopy")
	}
	if err := mem.BorrowReadV(addrs, views); !errors.Is(err, errNoZeroCopy) {
		t.Fatalf("BorrowReadV on mem array: err = %v, want errNoZeroCopy", err)
	}
	if _, err := mem.BorrowWrite(addrs[0]); !errors.Is(err, errNoZeroCopy) {
		t.Fatalf("BorrowWrite on mem array: err = %v, want errNoZeroCopy", err)
	}
}
