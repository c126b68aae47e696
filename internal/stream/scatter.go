package stream

import (
	"fmt"

	"repro/internal/pdm"
)

// Scatter is the bucket writer of the distribution passes.  Every bucket
// fills one carry block in memory; each block a bucket fills goes to the
// address the caller's next function returns, into a stage of one memory
// load queued by destination disk, and every request the Scatter issues is
// the head of each non-empty queue — at most one block per disk, so exactly
// one parallel step whatever order the buckets filled in.  Flush pads each
// bucket's partial carry with zeros and queues it after the full blocks, so
// a pass writes at most one nonfull block per bucket.  Requests go out
// synchronously, only when the stage is full or on Flush, so stats and
// traces are a pure function of the Append sequence.
//
// On zero-copy arrays a block is copied once, from its carry straight into
// its borrowed destination view, and the request is charged through ChargeV
// with the address list WriteV would have used; the stage is allocated all
// the same, so the memory envelope and any arena-pressure failure match
// across backends.
type Scatter struct {
	a     *pdm.Array
	b     int
	next  func(bucket, words int) (pdm.BlockAddr, error)
	carry []int64 // one block per bucket; nil once closed
	fill  []int   // words in each bucket's carry
	stage []int64 // M/B block slots, untouched on zero-copy arrays
	// Slots are linked through index arrays, so a block costs no allocation:
	// link chains a slot into its disk's FIFO or the free list (−1 ends).
	addr       []pdm.BlockAddr
	link       []int
	head, tail []int // per disk
	free       int
	queued     int
	addrs      []pdm.BlockAddr // request scratch
	bufs       [][]int64
	err        error // sticky
}

// NewScatter allocates buckets carry blocks and the stage: M/B block slots,
// a function of the geometry alone (at least D, since a valid configuration
// has M ≥ D·B), M + buckets·B keys in all.  They are two arena buffers: a
// one-load stage is a size the arena keeps for the other passes anyway,
// where a single buffer of both would be a size of its own.  next returns
// the address of a bucket's next block when the Scatter queues it; words
// is the block's valid word count (B, or fewer for the padded block Flush
// queues).
func NewScatter(a *pdm.Array, buckets int, next func(bucket, words int) (pdm.BlockAddr, error)) (*Scatter, error) {
	b, slots, d := a.B(), a.Mem()/a.B(), a.D()
	carry, err := a.Arena().Alloc(buckets * b)
	if err != nil {
		return nil, err
	}
	stage, err := a.Arena().Alloc(slots * b)
	if err != nil {
		a.Arena().Free(carry)
		return nil, err
	}
	s := &Scatter{a: a, b: b, next: next, carry: carry, fill: make([]int, buckets), stage: stage,
		addr: make([]pdm.BlockAddr, slots), link: make([]int, slots),
		head: make([]int, d), tail: make([]int, d), free: slots - 1,
		addrs: make([]pdm.BlockAddr, 0, d), bufs: make([][]int64, 0, d)}
	for i := range s.link {
		s.link[i] = i - 1
	}
	for i := range s.head {
		s.head[i] = -1
	}
	return s, nil
}

// Append copies words onto bucket's carry, queueing every block it fills.
// The caller may reuse words at once.
func (s *Scatter) Append(bucket int, words []int64) error {
	if s.err == nil && uint(bucket) >= uint(len(s.fill)) {
		s.err = fmt.Errorf("%w: scatter to bucket %d of %d", pdm.ErrOutOfRange, bucket, len(s.fill))
	}
	for s.err == nil && len(words) > 0 {
		f := s.fill[bucket]
		n := copy(s.carry[bucket*s.b+f:(bucket+1)*s.b], words)
		words = words[n:]
		if s.fill[bucket] = f + n; f+n == s.b {
			s.queue(bucket)
		}
	}
	return s.err
}

// queue moves bucket's carry to the stage at the address next returns,
// first issuing one step if the stage is full.
func (s *Scatter) queue(bucket int) {
	b, words := s.b, s.fill[bucket]
	s.fill[bucket] = 0
	addr, err := s.next(bucket, words)
	if err != nil {
		s.err = err
		return
	}
	d := addr.Disk
	if d < 0 || d >= len(s.head) {
		s.err = fmt.Errorf("%w: scatter to disk %d", pdm.ErrOutOfRange, d)
		return
	}
	if s.free < 0 {
		if s.step(); s.err != nil {
			return
		}
	}
	i := s.free
	dst := s.stage[i*b : i*b+b]
	if s.a.ZeroCopy() {
		if dst, s.err = s.a.BorrowWrite(addr); s.err != nil {
			return
		}
	}
	copy(dst, s.carry[bucket*b:(bucket+1)*b])
	s.free = s.link[i]
	s.addr[i], s.link[i] = addr, -1
	if s.head[d] < 0 {
		s.head[d] = i
	} else {
		s.link[s.tail[d]] = i
	}
	s.tail[d] = i
	s.queued++
}

// step issues one request: the head of every non-empty disk queue.  A
// canceled context rejects it before charging, as WriteV does.
func (s *Scatter) step() {
	b := s.b
	s.addrs, s.bufs = s.addrs[:0], s.bufs[:0]
	for d, i := range s.head {
		if i < 0 {
			continue
		}
		s.addrs = append(s.addrs, s.addr[i])
		s.bufs = append(s.bufs, s.stage[i*b:i*b+b])
		s.head[d] = s.link[i]
		s.link[i], s.free = s.free, i
		s.queued--
	}
	if !s.a.ZeroCopy() {
		s.err = s.a.WriteV(s.addrs, s.bufs)
	} else if s.err = s.a.CtxErr(); s.err == nil {
		s.a.ChargeV(s.addrs, true)
	}
}

// Flush zero-pads every partial carry and queues it, in bucket order, then
// drains the queues a step at a time (a no-op when nothing was appended).
// It must precede any read of the scattered blocks.
func (s *Scatter) Flush() error {
	for bkt, f := range s.fill {
		if s.err == nil && f > 0 {
			clear(s.carry[bkt*s.b+f : (bkt+1)*s.b])
			s.queue(bkt)
		}
	}
	for s.err == nil && s.queued > 0 {
		s.step()
	}
	return s.err
}

// Close returns the carries and the stage to the arena without flushing:
// blocks still carried or queued are dropped (error paths).  It is
// idempotent.
func (s *Scatter) Close() {
	if s.carry != nil {
		s.a.Arena().Free(s.carry)
		s.a.Arena().Free(s.stage)
		s.carry, s.stage = nil, nil
	}
}
