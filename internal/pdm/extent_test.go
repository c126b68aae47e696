package pdm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/wordview"
)

// runBufs returns n distinct blocks of b keys, tagged by tag and block index.
func runBufs(n, b int, tag int64) [][]int64 {
	bufs := make([][]int64, n)
	for j := range bufs {
		bufs[j] = make([]int64, b)
		for i := range bufs[j] {
			bufs[j][i] = tag<<48 | int64(j)<<16 | int64(i)
		}
	}
	return bufs
}

// fileExtent returns d's run methods, skipping the test where FileDisk has
// none (off little-endian Linux).
func fileExtent(t *testing.T, d *FileDisk) ExtentDisk {
	t.Helper()
	e, ok := Disk(d).(ExtentDisk)
	if !ok {
		t.Skip("FileDisk moves no extents on this platform")
	}
	return e
}

// TestExtentRunContract drives FileDisk's run methods at run lengths either
// side of the 64-iovec and 1024-iovec (IOV_MAX) boundaries: a run written
// at the frontier and one beyond it (leaving a hole) grow the file and read
// back block for block; a read past the frontier fails before moving
// anything; a wrong-length buffer is ErrBadBlock and writes nothing.
func TestExtentRunContract(t *testing.T) {
	const b = 4
	for _, n := range []int{1, 63, 64, 65, 1024, 1025, 3000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "d0.bin")
			fd, err := NewFileDisk(path, b)
			if err != nil {
				t.Fatal(err)
			}
			d := fileExtent(t, fd)
			first, second := runBufs(n, b, 1), runBufs(n, b, 2)
			const hole = 5
			if err := d.WriteBlocks(0, first); err != nil {
				t.Fatal(err)
			}
			if got := d.Blocks(); got != n {
				t.Fatalf("after a run at the frontier: Blocks = %d, want %d", got, n)
			}
			if err := d.WriteBlocks(n+hole, second); err != nil {
				t.Fatal(err)
			}
			total := 2*n + hole
			if got := d.Blocks(); got != total {
				t.Fatalf("after a run beyond the frontier: Blocks = %d, want %d", got, total)
			}
			want := slices.Concat(first, make([][]int64, hole), second)
			for j := n; j < n+hole; j++ {
				want[j] = make([]int64, b) // the hole reads as zeros
			}
			got := runBufs(total, b, 9)
			if err := d.ReadBlocks(0, got); err != nil {
				t.Fatal(err)
			}
			blk := make([]int64, b)
			for j := range want {
				if !slices.Equal(got[j], want[j]) {
					t.Fatalf("run read: block %d = %v, want %v", j, got[j], want[j])
				}
				if err := d.ReadBlock(j, blk); err != nil || !slices.Equal(blk, want[j]) {
					t.Fatalf("block read: block %d = %v (%v), want %v", j, blk, err, want[j])
				}
			}

			past := runBufs(2, b, 7)
			if err := d.ReadBlocks(total-1, past); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("read past the frontier: err = %v, want ErrOutOfRange", err)
			}
			if !slices.Equal(past[0], runBufs(1, b, 7)[0]) {
				t.Fatal("a read past the frontier moved data")
			}
			bad := runBufs(3, b, 3)
			bad[1] = bad[1][:b-1]
			if err := d.WriteBlocks(total, bad); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("short buffer in a write run: err = %v, want ErrBadBlock", err)
			}
			if err := d.ReadBlocks(0, bad); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("short buffer in a read run: err = %v, want ErrBadBlock", err)
			}
			if got := d.Blocks(); got != total {
				t.Fatalf("a rejected write run moved the frontier to %d", got)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(total*b*8) {
				t.Fatalf("closed file: %v (%v), want %d bytes", st.Size(), err, total*b*8)
			}
		})
	}
}

// TestExtentRunAllocs: a pass-sized run (a few blocks) and a staging-sized
// one both keep their iovecs on the stack, so neither allocates.
func TestExtentRunAllocs(t *testing.T) {
	const b = 4
	fd, err := NewFileDisk(filepath.Join(t.TempDir(), "d0.bin"), b)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	d := fileExtent(t, fd)
	for _, n := range []int{4, 600} {
		bufs := runBufs(n, b, 1)
		allocs := testing.AllocsPerRun(50, func() {
			if err := d.WriteBlocks(0, bufs); err != nil {
				t.Fatal(err)
			}
			if err := d.ReadBlocks(0, bufs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a %d-block run allocates %v times, want 0", n, allocs)
		}
	}
}

// TestExtentTornFile: a run over a file truncated beneath the frontier fails
// loudly instead of handing back part of the run.
func TestExtentTornFile(t *testing.T) {
	fd, err := NewFileDisk(filepath.Join(t.TempDir(), "d0.bin"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	d := fileExtent(t, fd)
	if err := d.WriteBlocks(0, runBufs(8, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fd.f.Truncate(3*4*8 + 8); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlocks(0, runBufs(8, 4, 0)); err == nil || !strings.Contains(err.Error(), "read") {
		t.Fatalf("torn run: err = %v, want wrapped read error", err)
	}
}

// TestExtentCapabilityDecidedOnce: an array stages by extent only when every
// disk has the capability and none parks its caller.
func TestExtentCapabilityDecidedOnce(t *testing.T) {
	cfg := Config{D: 2, B: 4, Mem: 64}
	files := func() []Disk {
		disks, err := NewFileDisks(t.TempDir(), cfg.D, cfg.B)
		if err != nil {
			t.Fatal(err)
		}
		return disks
	}
	mmaps, err := NewMmapDisks(t.TempDir(), cfg.D, cfg.B)
	if err != nil {
		t.Fatal(err)
	}
	latent := files()
	for i, d := range latent {
		latent[i] = LatencyDisk{Disk: d}
	}
	mixed := files()
	mixed[1].Close()
	mixed[1] = NewMemDisk(cfg.B)
	for _, tc := range []struct {
		name  string
		disks []Disk
		want  bool
	}{
		{"file", files(), runtime.GOOS == "linux" && wordview.Native},
		{"mem", NewMemDisks(cfg.D, cfg.B), false},
		{"mmap", mmaps, false},
		{"latency", latent, false},
		{"mixed", mixed, false},
	} {
		a, err := NewWithDisks(cfg, tc.disks)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.ext != nil; got != tc.want {
			t.Errorf("%s: extent staging = %v, want %v", tc.name, got, tc.want)
		}
		a.Close()
	}
}

// TestExtentStagingMatchesMem: LoadPadded/UnloadInto on file disks, which
// take one run per disk, leave every disk holding exactly what a MemDisk
// array's per-block staging leaves, and unload the same keys — at every
// skew class, block counts that do not fill the last row, a partial last
// block, and sentinel padding.
func TestExtentStagingMatchesMem(t *testing.T) {
	cfg := Config{D: 5, B: 3, Mem: 75}
	const sentinel = int64(-7)
	for _, skew := range []int{0, 1, cfg.D - 1} {
		for _, nb := range []int{1, cfg.D - 1, cfg.D, cfg.D + 1, 3*cfg.D + 2} {
			for _, short := range []int{0, 1, cfg.B + 1, nb * cfg.B} {
				if short > nb*cfg.B {
					continue
				}
				name := fmt.Sprintf("skew=%d/blocks=%d/short=%d", skew, nb, short)
				fileDisks, err := NewFileDisks(t.TempDir(), cfg.D, cfg.B)
				if err != nil {
					t.Fatal(err)
				}
				arrays := map[string][]Disk{"file": fileDisks, "mem": NewMemDisks(cfg.D, cfg.B)}
				unloaded := map[string][]int64{}
				n := nb*cfg.B - short
				data := make([]int64, n)
				for i := range data {
					data[i] = int64(1000 + i)
				}
				for kind, disks := range arrays {
					a, err := NewWithDisks(cfg, disks)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := a.NewStripe(a.StripeWidth()); err != nil { // row0 = 1 below
						t.Fatal(err)
					}
					s, err := a.NewStripeSkew(nb*cfg.B, skew)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.LoadPadded(data, sentinel); err != nil {
						t.Fatalf("%s %s: %v", name, kind, err)
					}
					out := make([]int64, n+1)
					out[n] = 42
					if err := s.UnloadInto(out[:n]); err != nil {
						t.Fatalf("%s %s: %v", name, kind, err)
					}
					if out[n] != 42 {
						t.Fatalf("%s %s: UnloadInto wrote past its destination", name, kind)
					}
					full, err := s.Unload()
					if err != nil {
						t.Fatal(err)
					}
					unloaded[kind] = slices.Concat(out[:n], full)
					if st := a.Stats(); st != (Stats{}) {
						t.Fatalf("%s %s: staging changed stats: %+v", name, kind, st)
					}
				}
				want := slices.Concat(data, data, slices.Repeat([]int64{sentinel}, short))
				for kind, got := range unloaded {
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %s unloads %v, want %v", name, kind, got, want)
					}
				}
				for d := range cfg.D {
					fd, md := arrays["file"][d], arrays["mem"][d]
					if fd.Blocks() != md.Blocks() {
						t.Fatalf("%s: disk %d holds %d blocks on file, %d on mem", name, d, fd.Blocks(), md.Blocks())
					}
					fb, mb := make([]int64, cfg.B), make([]int64, cfg.B)
					for off := 1; off < md.Blocks(); off++ {
						ferr, merr := fd.ReadBlock(off, fb), md.ReadBlock(off, mb)
						if (ferr == nil) != (merr == nil) || !slices.Equal(fb, mb) {
							t.Fatalf("%s: disk %d block %d: file %v (%v), mem %v (%v)", name, d, off, fb, ferr, mb, merr)
						}
					}
				}
				for _, disks := range arrays {
					for _, d := range disks {
						d.Close()
					}
				}
			}
		}
	}
}

// TestExtentStagingCanceled: with the bound context canceled, extent
// staging fails before any disk is touched.
func TestExtentStagingCanceled(t *testing.T) {
	cfg := Config{D: 3, B: 4, Mem: 48}
	a, err := NewFileArray(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	s, err := a.NewStripe(4 * a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a.BindContext(ctx)
	if err := s.LoadPadded(make([]int64, 5), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadPadded under a canceled context: err = %v", err)
	}
	if err := s.UnloadInto(make([]int64, 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("UnloadInto under a canceled context: err = %v", err)
	}
	for d, disk := range a.disks {
		if disk.Blocks() != 0 {
			t.Fatalf("disk %d holds %d blocks after a canceled load", d, disk.Blocks())
		}
	}
}

// blockCall is one block call a wrapped disk saw.
type blockCall struct {
	addr  BlockAddr
	write bool
}

// callLog embeds Disk, the shape of bench's spanDisk and the tests' fault
// disks: it hides every optional capability, so the array must hand it
// each block.
type callLog struct {
	Disk
	idx   int
	calls *[]blockCall
}

func (c callLog) ReadBlock(off int, dst []int64) error {
	*c.calls = append(*c.calls, blockCall{BlockAddr{c.idx, off}, false})
	return c.Disk.ReadBlock(off, dst)
}

func (c callLog) WriteBlock(off int, src []int64) error {
	*c.calls = append(*c.calls, blockCall{BlockAddr{c.idx, off}, true})
	return c.Disk.WriteBlock(off, src)
}

// TestExtentWrappedDisksSeeEveryBlock: over wrapped file disks, LoadPadded
// makes exactly one WriteBlock call per stripe block and UnloadInto one
// ReadBlock, in request order — so fault injection and bench's traced twin
// keep seeing every block.
func TestExtentWrappedDisksSeeEveryBlock(t *testing.T) {
	cfg := Config{D: 4, B: 4, Mem: 64}
	disks, err := NewFileDisks(t.TempDir(), cfg.D, cfg.B)
	if err != nil {
		t.Fatal(err)
	}
	var calls []blockCall
	for i, d := range disks {
		disks[i] = callLog{Disk: d, idx: i, calls: &calls}
	}
	a, err := NewWithDisks(cfg, disks)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const nb = 3*4 + 2
	s, err := a.NewStripeSkew(nb*cfg.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := func(write bool) []blockCall {
		var w []blockCall
		for j := range nb {
			w = append(w, blockCall{s.BlockAddr(j), write})
		}
		return w
	}
	if err := s.LoadPadded(make([]int64, nb*cfg.B-5), 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(calls, want(true)) {
		t.Fatalf("LoadPadded block calls %v, want %v", calls, want(true))
	}
	calls = nil
	if err := s.UnloadInto(make([]int64, nb*cfg.B-1)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(calls, want(false)) {
		t.Fatalf("UnloadInto block calls %v, want %v", calls, want(false))
	}
}
