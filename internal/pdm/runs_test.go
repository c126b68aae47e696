package pdm

import (
	"fmt"
	"slices"
	"testing"
)

// runCall is one call a countingDisk saw: n blocks from off (n = 0 for a
// single-block call).
type runCall struct {
	off, n int
	write  bool
}

// countingDisk is an ExtentDisk over a MemDisk that logs every call, so a
// test can see how transferV cut a request.
type countingDisk struct {
	*MemDisk
	calls []runCall
}

func (c *countingDisk) ReadBlock(off int, dst []int64) error {
	c.calls = append(c.calls, runCall{off, 0, false})
	return c.MemDisk.ReadBlock(off, dst)
}

func (c *countingDisk) WriteBlock(off int, src []int64) error {
	c.calls = append(c.calls, runCall{off, 0, true})
	return c.MemDisk.WriteBlock(off, src)
}

func (c *countingDisk) ReadBlocks(off int, dst [][]int64) error {
	c.calls = append(c.calls, runCall{off, len(dst), false})
	for i, buf := range dst {
		if err := c.MemDisk.ReadBlock(off+i, buf); err != nil {
			return err
		}
	}
	return nil
}

func (c *countingDisk) WriteBlocks(off int, src [][]int64) error {
	c.calls = append(c.calls, runCall{off, len(src), true})
	for i, buf := range src {
		if err := c.MemDisk.WriteBlock(off+i, buf); err != nil {
			return err
		}
	}
	return nil
}

// countingArray builds an array of countingDisks, which is extent-capable.
func countingArray(t *testing.T, cfg Config) (*Array, []*countingDisk) {
	t.Helper()
	counters := make([]*countingDisk, cfg.D)
	disks := make([]Disk, cfg.D)
	for i := range disks {
		counters[i] = &countingDisk{MemDisk: NewMemDisk(cfg.B)}
		disks[i] = counters[i]
	}
	a, err := NewWithDisks(cfg, disks)
	if err != nil {
		t.Fatal(err)
	}
	if a.ext == nil {
		t.Fatal("an array of ExtentDisks moves no runs")
	}
	return a, counters
}

// TestTransferVMovesRowsInOneCallPerDisk: a synchronous TransferV of k
// consecutive rows of a stripe, whatever its skew, makes one call of k
// blocks per disk, for reads and writes alike, and moves the same keys a
// MemDisk array's per-block execution moves.
func TestTransferVMovesRowsInOneCallPerDisk(t *testing.T) {
	cfg := Config{D: 4, B: 2, Mem: 64}
	for _, skew := range []int{0, 3} {
		for _, rows := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("skew=%d/rows=%d", skew, rows), func(t *testing.T) {
				a, disks := countingArray(t, cfg)
				s, err := a.NewStripeSkew((rows+1)*a.StripeWidth(), skew)
				if err != nil {
					t.Fatal(err)
				}
				addrs, err := s.AppendAddrs(nil, a.StripeWidth(), rows*a.StripeWidth()) // rows 1..rows
				if err != nil {
					t.Fatal(err)
				}
				src := runBufs(len(addrs), cfg.B, 7)
				if err := a.TransferV(addrs, src, true); err != nil {
					t.Fatal(err)
				}
				dst := runBufs(len(addrs), cfg.B, 0)
				if err := a.TransferV(addrs, dst, false); err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(src, dst, slices.Equal) {
					t.Fatal("read back different keys")
				}
				for d, disk := range disks {
					want := []runCall{{1, rows, true}, {1, rows, false}}
					if !slices.Equal(disk.calls, want) {
						t.Errorf("disk %d calls %v, want %v", d, disk.calls, want)
					}
				}
			})
		}
	}
}

// TestTransferVRunsKeepRequestOrder: a disk's blocks are cut into runs in
// request order, wherever the next offset is not the previous one plus
// one — at gaps, at a step back, at a repeated offset — so a repeated
// offset is written in request order and the last write wins.
func TestTransferVRunsKeepRequestOrder(t *testing.T) {
	cfg := Config{D: 2, B: 2, Mem: 64}
	a, disks := countingArray(t, cfg)
	offs := []int{0, 1, 3, 4, 2, 2, 3, 8, 7}
	var addrs []BlockAddr
	for _, off := range offs {
		addrs = append(addrs, BlockAddr{Disk: 1, Off: off}, BlockAddr{Disk: 0, Off: off})
	}
	src := runBufs(len(addrs), cfg.B, 3)
	if err := a.TransferV(addrs, src, true); err != nil {
		t.Fatal(err)
	}
	want := []runCall{{0, 2, true}, {3, 2, true}, {2, 1, true}, {2, 2, true}, {8, 1, true}, {7, 1, true}}
	for d, disk := range disks {
		if !slices.Equal(disk.calls, want) {
			t.Errorf("disk %d calls %v, want %v", d, disk.calls, want)
		}
	}
	// Offsets 2 and 3 were written twice: the later request position holds.
	last := map[BlockAddr][]int64{}
	for i, ad := range addrs {
		last[ad] = src[i]
	}
	for ad, keys := range last {
		got := make([]int64, cfg.B)
		if err := disks[ad.Disk].MemDisk.ReadBlock(ad.Off, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, keys) {
			t.Errorf("block %+v holds %v, want the last write %v", ad, got, keys)
		}
	}
}

// TestTransferVPerBlockWithoutExtents: mem arrays, and extent-capable
// disks behind a LatencyDisk, keep one block call per block in request
// order.
func TestTransferVPerBlockWithoutExtents(t *testing.T) {
	cfg := Config{D: 2, B: 2, Mem: 64}
	mem, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mem.ext != nil {
		t.Fatal("a mem array moves runs")
	}
	inner := []*countingDisk{{MemDisk: NewMemDisk(cfg.B)}, {MemDisk: NewMemDisk(cfg.B)}}
	a, err := NewWithDisks(cfg, []Disk{LatencyDisk{Disk: inner[0]}, LatencyDisk{Disk: inner[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if a.ext != nil {
		t.Fatal("a latency array moves runs")
	}
	addrs := []BlockAddr{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}}
	if err := a.TransferV(addrs, runBufs(len(addrs), cfg.B, 1), true); err != nil {
		t.Fatal(err)
	}
	if err := a.TransferV(addrs, runBufs(len(addrs), cfg.B, 0), false); err != nil {
		t.Fatal(err)
	}
	want := [][]runCall{
		{{0, 0, true}, {1, 0, true}, {2, 0, true}, {0, 0, false}, {1, 0, false}, {2, 0, false}},
		{{0, 0, true}, {1, 0, true}, {0, 0, false}, {1, 0, false}},
	}
	for d, disk := range inner {
		if !slices.Equal(disk.calls, want[d]) {
			t.Errorf("disk %d calls %v, want %v", d, disk.calls, want[d])
		}
	}
}

// TestTransferVRunsAllocateNothing: once the array holds scratch for it, a
// run-grouped transfer allocates nothing, and neither does charging it.
func TestTransferVRunsAllocateNothing(t *testing.T) {
	cfg := Config{D: 4, B: 2, Mem: 64}
	a, _ := countingArray(t, cfg)
	for _, d := range a.disks {
		d.(*countingDisk).calls = make([]runCall, 0, 1<<14)
	}
	s, err := a.NewStripe(4 * a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := s.AppendAddrs(nil, 0, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	bufs := runBufs(len(addrs), cfg.B, 1)
	if err := a.WriteV(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.ReadV(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadV of %d blocks in runs allocates %v times, want 0", len(addrs), allocs)
	}
}
