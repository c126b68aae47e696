package pdm

import (
	"fmt"
)

// extent is a run of free rows in the row allocator.
type extent struct{ start, n int }

// rowAllocator hands out "rows" of disk space.  A row is one block at the
// same offset on every disk, i.e. D·B keys of capacity.  Stripes occupy whole
// rows so that consecutive logical blocks land on consecutive disks —
// the round-robin striping all of the paper's layouts build on.
type rowAllocator struct {
	next int
	free []extent
}

func (ra *rowAllocator) alloc(n int) int {
	for i, e := range ra.free {
		if e.n >= n {
			start := e.start
			if e.n == n {
				ra.free = append(ra.free[:i], ra.free[i+1:]...)
			} else {
				ra.free[i] = extent{e.start + n, e.n - n}
			}
			return start
		}
	}
	start := ra.next
	ra.next += n
	return start
}

func (ra *rowAllocator) release(start, n int) {
	if n <= 0 {
		return
	}
	// Coalescing keeps the free list small across the many alloc/free cycles
	// of multi-phase algorithms.
	merged := extent{start, n}
	out := ra.free[:0]
	for _, e := range ra.free {
		switch {
		case e.start+e.n == merged.start:
			merged = extent{e.start, e.n + merged.n}
		case merged.start+merged.n == e.start:
			merged = extent{merged.start, merged.n + e.n}
		default:
			out = append(out, e)
		}
	}
	ra.free = append(out, merged)
}

// Stripe is a logical array of keys striped round-robin across all D disks:
// logical block j lives on disk (j+skew) mod D at row row0 + j/D.  Reading
// any D consecutive blocks therefore touches every disk exactly once — a
// fully parallel I/O step.
//
// The skew implements the rotated ("diagonal") striping of Rajasekaran's LMM
// sort: when an algorithm keeps one stripe per run and gives run i skew i,
// reading block j of every run in one request spreads the blocks across the
// disks, and so does writing block j of run i for all j.  Both access
// directions of the paper's unshuffle/merge/shuffle phases achieve full
// parallelism this way.
type Stripe struct {
	a    *Array
	row0 int
	skew int
	n    int // keys
	nb   int // blocks
	rows int
}

// NewStripe allocates disk space for nKeys keys (which must be a multiple of
// the block size B) striped across all disks.
func (a *Array) NewStripe(nKeys int) (*Stripe, error) {
	return a.NewStripeSkew(nKeys, 0)
}

// NewStripeSkew is NewStripe with the disk assignment of every block rotated
// by skew.
func (a *Array) NewStripeSkew(nKeys, skew int) (*Stripe, error) {
	if nKeys <= 0 || nKeys%a.cfg.B != 0 {
		return nil, fmt.Errorf("%w: stripe of %d keys with B = %d", ErrUnaligned, nKeys, a.cfg.B)
	}
	nb := nKeys / a.cfg.B
	rows := (nb + a.cfg.D - 1) / a.cfg.D
	skew %= a.cfg.D
	if skew < 0 {
		skew += a.cfg.D
	}
	a.mu.Lock()
	row0 := a.alloc.alloc(rows)
	a.mu.Unlock()
	return &Stripe{a: a, row0: row0, skew: skew, n: nKeys, nb: nb, rows: rows}, nil
}

// Len returns the stripe's length in keys.
func (s *Stripe) Len() int { return s.n }

// Blocks returns the stripe's length in blocks.
func (s *Stripe) Blocks() int { return s.nb }

// Array returns the array the stripe lives on.
func (s *Stripe) Array() *Array { return s.a }

// Free returns the stripe's rows to the allocator.  The stripe must not be
// used afterwards.
func (s *Stripe) Free() {
	s.a.mu.Lock()
	s.a.alloc.release(s.row0, s.rows)
	s.a.mu.Unlock()
	s.rows = 0
}

// BlockAddr maps logical block j of the stripe to its physical address.
// Blocks of one row (j in [rD, (r+1)D)) map bijectively onto the disks, so
// stripes never collide regardless of skew.
func (s *Stripe) BlockAddr(j int) BlockAddr {
	return BlockAddr{Disk: (j + s.skew) % s.a.cfg.D, Off: s.row0 + j/s.a.cfg.D}
}

// Skew returns the stripe's disk-rotation offset.
func (s *Stripe) Skew() int { return s.skew }

// AddrRange returns the addresses of the blocks covering keys
// [keyOff, keyOff+nKeys), in logical order — the request the sequential
// ReadAt/WriteAt would issue.  The streaming layer uses it to pre-plan
// chunk requests.
func (s *Stripe) AddrRange(keyOff, nKeys int) ([]BlockAddr, error) {
	return s.addrRange(keyOff, nKeys)
}

// addrRange returns the addresses of the blocks covering keys
// [keyOff, keyOff+nKeys).
func (s *Stripe) addrRange(keyOff, nKeys int) ([]BlockAddr, error) {
	b := s.a.cfg.B
	if keyOff%b != 0 || nKeys%b != 0 {
		return nil, fmt.Errorf("%w: range [%d, %d) with B = %d", ErrUnaligned, keyOff, keyOff+nKeys, b)
	}
	if keyOff < 0 || keyOff+nKeys > s.n {
		return nil, fmt.Errorf("%w: range [%d, %d) of stripe with %d keys", ErrOutOfRange, keyOff, keyOff+nKeys, s.n)
	}
	first := keyOff / b
	addrs := make([]BlockAddr, nKeys/b)
	for i := range addrs {
		addrs[i] = s.BlockAddr(first + i)
	}
	return addrs, nil
}

// ReadAt reads keys [keyOff, keyOff+len(dst)) into dst.  Both keyOff and
// len(dst) must be multiples of B.  D consecutive blocks cost one parallel
// step.
func (s *Stripe) ReadAt(keyOff int, dst []int64) error {
	addrs, err := s.addrRange(keyOff, len(dst))
	if err != nil {
		return err
	}
	return s.a.ReadV(addrs, s.a.splitBlocks(dst))
}

// WriteAt writes src to keys [keyOff, keyOff+len(src)), with the same
// alignment rules as ReadAt.
func (s *Stripe) WriteAt(keyOff int, src []int64) error {
	addrs, err := s.addrRange(keyOff, len(src))
	if err != nil {
		return err
	}
	return s.a.WriteV(addrs, s.a.splitBlocks(src))
}

// Load writes data into the stripe without touching the I/O statistics or
// the trace.  It models the input already residing on the disks, which is
// the starting state of every PDM algorithm; use it only from harnesses.
func (s *Stripe) Load(data []int64) error {
	if len(data) != s.n {
		return fmt.Errorf("pdm: Load of %d keys into stripe of %d", len(data), s.n)
	}
	return s.LoadPadded(data, 0)
}

// LoadPadded is Load for an input that may be shorter than the stripe: data
// fills the first len(data) keys and sentinel every key after them.  Whole
// blocks go to the disks straight from data, which is only read; just the
// block data ends in and one block of sentinels (shared by every padding
// block) are staged, so no copy of the input is made.
func (s *Stripe) LoadPadded(data []int64, sentinel int64) error {
	if len(data) > s.n {
		return fmt.Errorf("pdm: Load of %d keys into stripe of %d", len(data), s.n)
	}
	addrs, err := s.addrRange(0, s.n)
	if err != nil {
		return err
	}
	b := s.a.cfg.B
	whole := len(data) / b * b
	bufs := s.a.splitBlocks(data[:whole])
	fill := func(blk []int64, from int) []int64 {
		for i := from; i < len(blk); i++ {
			blk[i] = sentinel
		}
		return blk
	}
	if whole < len(data) {
		last := make([]int64, b)
		bufs = append(bufs, fill(last, copy(last, data[whole:])))
	}
	if len(bufs) < len(addrs) {
		pad := fill(make([]int64, b), 0)
		for len(bufs) < len(addrs) {
			bufs = append(bufs, pad)
		}
	}
	return s.a.TransferV(addrs, bufs, true)
}

// Unload reads the whole stripe without touching the I/O statistics or the
// trace, for verification in harnesses.
func (s *Stripe) Unload() ([]int64, error) {
	out := make([]int64, s.n)
	if err := s.UnloadInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// UnloadInto is Unload of the stripe's first len(dst) keys straight into
// dst: whole blocks land in place and only the block dst ends in is staged.
func (s *Stripe) UnloadInto(dst []int64) error {
	if len(dst) > s.n {
		return fmt.Errorf("pdm: Unload of %d keys from stripe of %d", len(dst), s.n)
	}
	b := s.a.cfg.B
	whole := len(dst) / b * b
	bufs := s.a.splitBlocks(dst[:whole])
	var last []int64
	if whole < len(dst) {
		last = make([]int64, b)
		bufs = append(bufs, last)
	}
	addrs, err := s.addrRange(0, len(bufs)*b)
	if err != nil {
		return err
	}
	if err := s.a.TransferV(addrs, bufs, false); err != nil {
		return err
	}
	copy(dst[whole:], last)
	return nil
}
