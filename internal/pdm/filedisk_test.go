package pdm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestFileDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileDisk(dir+"/d0.bin", 4)
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
	if d.Path() == "" {
		t.Fatal("Path is empty")
	}
}

// TestFileDiskFormatPinned pins the scratch-file format — little-endian
// int64s, block off at byte offset off·B·8 — against an independent
// encoding/binary reader and writer, in both directions.  It is what lets
// a Checkpoint manifest re-attach scratch written by another build of this
// program, whatever FileDisk does between the caller's words and the file.
func TestFileDiskFormatPinned(t *testing.T) {
	cfg := Config{D: 3, B: 4, Mem: 48}
	words := func(disk, off int) []int64 {
		w := make([]int64, cfg.B)
		for i := range w {
			w[i] = int64(disk+1)<<56 - int64(off)<<24 - int64(i) // every byte lane live, both signs
		}
		return w
	}
	offs := []int{0, 2, 5} // out of order below, with holes

	t.Run("written-decodes", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewFileArray(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		var addrs []BlockAddr
		var bufs [][]int64
		for _, off := range []int{5, 0, 2} {
			for d := 0; d < cfg.D; d++ {
				addrs = append(addrs, BlockAddr{Disk: d, Off: off})
				bufs = append(bufs, words(d, off))
			}
		}
		if err := a.WriteV(addrs, bufs); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < cfg.D; d++ {
			raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("disk%04d.bin", d)))
			if err != nil {
				t.Fatal(err)
			}
			if want := (offs[len(offs)-1] + 1) * cfg.B * 8; len(raw) != want {
				t.Fatalf("disk %d: file is %d bytes, want %d", d, len(raw), want)
			}
			for _, off := range offs {
				got := make([]int64, cfg.B)
				if err := binary.Read(bytes.NewReader(raw[off*cfg.B*8:]), binary.LittleEndian, got); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, words(d, off)) {
					t.Fatalf("disk %d block %d decodes to %v, want %v", d, off, got, words(d, off))
				}
			}
		}
	})

	t.Run("encoded-reopens", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "disk0000.bin")
		var raw bytes.Buffer
		for off := 0; off <= offs[len(offs)-1]; off++ {
			if err := binary.Write(&raw, binary.LittleEndian, words(0, off)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFileDisk(path, cfg.B)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if got, want := d.Blocks(), offs[len(offs)-1]+1; got != want {
			t.Fatalf("Blocks = %d, want %d", got, want)
		}
		got := make([]int64, cfg.B)
		for off := 0; off < d.Blocks(); off++ {
			if err := d.ReadBlock(off, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, words(0, off)) {
				t.Fatalf("block %d reads back %v, want %v", off, got, words(0, off))
			}
		}
	})
}

// TestFileDiskErrors drives the failure paths: a backing file shorter
// than the frontier claims (torn scratch), and growth / Close-trim on a
// dead file descriptor.
func TestFileDiskErrors(t *testing.T) {
	t.Run("short-read", func(t *testing.T) {
		path := t.TempDir() + "/d0.bin"
		d, err := NewFileDisk(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.WriteBlock(0, []int64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		// Truncate the backing file beneath the frontier: the next read
		// must fail loudly, not hand back half a block.
		if err := d.f.Truncate(8); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadBlock(0, make([]int64, 4)); err == nil || !strings.Contains(err.Error(), "read") {
			t.Fatalf("short read: err = %v, want wrapped read error", err)
		}
	})
	t.Run("grow-failure", func(t *testing.T) {
		d, err := NewFileDisk(t.TempDir()+"/d0.bin", 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlock(0, make([]int64, 4)); err == nil || !strings.Contains(err.Error(), "grow") {
			t.Fatalf("write on dead fd: err = %v, want grow error", err)
		}
	})
	t.Run("close-trim-failure", func(t *testing.T) {
		d, err := NewFileDisk(t.TempDir()+"/d0.bin", 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlock(0, make([]int64, 4)); err != nil {
			t.Fatal(err)
		}
		// Kill the fd under the disk: Close's trim truncate must surface.
		if err := d.f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err == nil || !strings.Contains(err.Error(), "trim") {
			t.Fatalf("Close on dead fd: err = %v, want trim error", err)
		}
	})
}

func TestFileArrayEndToEnd(t *testing.T) {
	cfg := Config{D: 3, B: 4, Mem: 48}
	a, err := NewFileArray(cfg, t.TempDir())
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
