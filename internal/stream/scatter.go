package stream

import (
	"fmt"

	"repro/internal/pdm"
)

// Scatter is the write combiner for irregular scatters (distribution onto
// pre-sized partition stripes): finished blocks wait in a stage of one
// memory load, queued by destination disk, and every request it issues is
// the head of each non-empty queue — at most one block per disk, so exactly
// one parallel step whatever order the partitions filled in.  Requests go
// out synchronously, only when the stage is full or on Flush, so stats and
// traces are a pure function of the Add sequence.
//
// On zero-copy arrays a block is copied once, straight into its borrowed
// destination view, and the request is charged through ChargeV with the
// address list WriteV would have used; the stage is still reserved, so the
// memory envelope and any arena-pressure failure match across backends.
type Scatter struct {
	a     *pdm.Array
	stage []int64 // nil on zero-copy arrays: reserved, never touched
	// Slots are linked through index arrays, so a block costs no allocation:
	// next chains a slot into its disk's FIFO or the free list (−1 ends).
	addr       []pdm.BlockAddr
	next       []int // nil once closed
	head, tail []int // per disk
	free       int
	queued     int
	addrs      []pdm.BlockAddr // request scratch
	bufs       [][]int64
	err        error // sticky
}

// NewScatter reserves the stage: M/B block slots, a function of the
// geometry alone (at least D, since a valid configuration has M ≥ D·B).
func NewScatter(a *pdm.Array) (*Scatter, error) {
	slots, d := a.Mem()/a.B(), a.D()
	s := &Scatter{a: a, addr: make([]pdm.BlockAddr, slots), next: make([]int, slots),
		head: make([]int, d), tail: make([]int, d), free: slots - 1,
		addrs: make([]pdm.BlockAddr, 0, d), bufs: make([][]int64, 0, d)}
	for i := range s.next {
		s.next[i] = i - 1
	}
	for i := range s.head {
		s.head[i] = -1
	}
	var err error
	if a.ZeroCopy() {
		err = a.Arena().Reserve(slots * a.B())
	} else {
		s.stage, err = a.Arena().Alloc(slots * a.B())
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Add queues a copy of blk for addr, first issuing one step if the stage
// is full.  The caller may reuse blk at once.
func (s *Scatter) Add(addr pdm.BlockAddr, blk []int64) error {
	b, d := s.a.B(), addr.Disk
	if s.err == nil && (d < 0 || d >= len(s.head) || len(blk) != b) {
		s.err = fmt.Errorf("%w: scatter of %d keys to disk %d", pdm.ErrOutOfRange, len(blk), d)
	}
	if s.err == nil && s.free < 0 {
		s.step()
	}
	if s.err != nil {
		return s.err
	}
	i := s.free
	var dst []int64
	if s.stage != nil {
		dst = s.stage[i*b : i*b+b]
	} else if dst, s.err = s.a.BorrowWrite(addr); s.err != nil {
		return s.err
	}
	copy(dst, blk)
	s.free = s.next[i]
	s.addr[i], s.next[i] = addr, -1
	if s.head[d] < 0 {
		s.head[d] = i
	} else {
		s.next[s.tail[d]] = i
	}
	s.tail[d] = i
	s.queued++
	return nil
}

// step issues one request: the head of every non-empty disk queue.  A
// canceled context rejects it before charging, as WriteV does.
func (s *Scatter) step() {
	b := s.a.B()
	s.addrs, s.bufs = s.addrs[:0], s.bufs[:0]
	for d, i := range s.head {
		if i < 0 {
			continue
		}
		s.addrs = append(s.addrs, s.addr[i])
		if s.stage != nil {
			s.bufs = append(s.bufs, s.stage[i*b:i*b+b])
		}
		s.head[d] = s.next[i]
		s.next[i], s.free = s.free, i
		s.queued--
	}
	if s.stage != nil {
		s.err = s.a.WriteV(s.addrs, s.bufs)
	} else if s.err = s.a.CtxErr(); s.err == nil {
		s.a.ChargeV(s.addrs, true)
	}
}

// Flush drains the queues a step at a time (a no-op when they are empty).
// It must precede any read of the scattered blocks.
func (s *Scatter) Flush() error {
	for s.err == nil && s.queued > 0 {
		s.step()
	}
	return s.err
}

// Close returns the stage to the arena without flushing: blocks still
// queued are dropped (error paths).  It is idempotent.
func (s *Scatter) Close() {
	s.a.Arena().Release(len(s.next) * s.a.B())
	s.next = nil
}
