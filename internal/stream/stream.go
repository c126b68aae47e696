package stream

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/pdm"
)

// ErrExhausted is returned by Reader.Fill after the last chunk has been
// consumed.
var ErrExhausted = errors.New("stream: read past the final chunk")

// piece is one run of a chunk's blocks inside one slot, travelling from
// the fetcher to the consumer.  A slot may hold pieces of several chunks,
// and a chunk may span several slots.
type piece struct {
	slot    int             // index into Reader.slots; -1 for an empty chunk or an error
	lo, hi  int             // the slot's blocks [lo, hi)
	release bool            // the slot's last piece: the slot is free once it is consumed
	last    bool            // final piece of its chunk
	addrs   []pdm.BlockAddr // the chunk's address list, set when last
	err     error
}

// Reader streams a fixed sequence of vectored read requests ("chunks") with
// prefetch: chunk t's addresses are produced by addrsOf(t), its data is
// fetched ahead on a background goroutine into arena-backed slots of
// pdm.SlotRows stripe rows, and Fill hands chunks to the consumer in order,
// charging each one as it is consumed.
type Reader struct {
	a       *pdm.Array
	chunks  int
	addrsOf func(int) []pdm.BlockAddr
	next    int
	err     error
	views   [][]int64 // block views of the caller's buffer (FillFlat, Pass)

	// pipelined mode (nil channels mean synchronous):
	ring   []int64     // unused on zero-copy arrays: their slots hold borrowed views
	slots  [][][]int64 // slot -> block views
	free   chan int
	filled chan piece
	quit   chan struct{}
	done   chan struct{}
	closed bool
}

// NewReader creates a Reader over chunks chunks whose block addresses are
// produced by addrsOf, which must be safe to call from the prefetch
// goroutine (it runs concurrently with the consumer; pure address
// arithmetic, as in all in-tree callers, is fine).  Prefetch depth comes
// from the array's pipeline configuration; depth 0 is fully synchronous.
func NewReader(a *pdm.Array, chunks int, addrsOf func(int) []pdm.BlockAddr) (*Reader, error) {
	r := &Reader{a: a, chunks: chunks, addrsOf: addrsOf}
	depth := a.Pipeline().Prefetch
	if depth == 0 || chunks == 0 {
		return r, nil
	}
	bps := pdm.SlotRows * a.D() // blocks per slot
	var err error
	if r.ring, err = a.Arena().Alloc(depth * bps * a.B()); err != nil {
		return nil, err
	}
	r.slots, r.free = newSlots(r.ring, depth, bps, a.B())
	// A slot usually carries at most two pieces (the tail of one chunk and
	// the head of the next), so the fetcher can hand over a whole fill
	// without waiting on the consumer.
	r.filled = make(chan piece, 2*depth)
	r.quit = make(chan struct{})
	r.done = make(chan struct{})
	go r.fetch()
	return r, nil
}

// newSlots carves ring into depth slots of bps B-key block views, all of
// them free.
func newSlots(ring []int64, depth, bps, b int) ([][][]int64, chan int) {
	var views [][]int64
	carve(&views, ring, b)
	slots := make([][][]int64, depth)
	free := make(chan int, depth)
	for i := range slots {
		slots[i] = views[i*bps : (i+1)*bps : (i+1)*bps]
		free <- i
	}
	return slots, free
}

// NewStripeReader returns a Reader streaming keys [start, start+n) of s
// sequentially in chunkKeys-key chunks (the last chunk may be shorter).
// start and chunkKeys must be multiples of B, n a multiple of B.
func NewStripeReader(s *pdm.Stripe, start, n, chunkKeys int) (*Reader, error) {
	b := s.Array().B()
	if chunkKeys <= 0 || chunkKeys%b != 0 {
		return nil, fmt.Errorf("stream: chunk of %d keys with B = %d", chunkKeys, b)
	}
	if err := s.CheckRange(start, n); err != nil {
		return nil, err
	}
	chunks, addrsOf := stripeChunks(s, start, n, chunkKeys)
	return NewReader(s.Array(), chunks, addrsOf)
}

// stripeChunks plans a sequential read of keys [start, start+n) of s in
// chunkKeys-key chunks (the last may be shorter): the chunk count and the
// addresses of chunk t.  The range must be valid.
func stripeChunks(s *pdm.Stripe, start, n, chunkKeys int) (int, func(int) []pdm.BlockAddr) {
	return (n + chunkKeys - 1) / chunkKeys, func(t int) []pdm.BlockAddr {
		off := t * chunkKeys
		addrs, err := s.AddrRange(start+off, min(chunkKeys, n-off))
		if err != nil {
			// Callers validate the whole range; a per-chunk failure is
			// unreachable.
			panic(err)
		}
		return addrs
	}
}

// fetch is the prefetch goroutine.  It waits for one free slot, takes
// every other free one, and fills them all in one vectored transfer with
// the blocks that come next in the stream, across chunk boundaries, so the
// per-request overhead (validation, one call per disk run) is amortized
// over everything the ring can hold.  Empty chunks pass without a slot.
func (r *Reader) fetch() {
	defer close(r.done)
	defer close(r.filled)
	bps := len(r.slots[0])
	var (
		addrs  []pdm.BlockAddr // chunk t's; its blocks from i on are still to fetch
		t, i   = -1, 0
		slots  []int
		req    []pdm.BlockAddr
		bufs   [][]int64
		pieces []piece
	)
	// advance moves the cursor to the next chunk, reporting an empty one.
	advance := func() bool {
		t++
		addrs, i = r.addrsOf(t), 0
		return len(addrs) == 0
	}
	for {
		for i == len(addrs) {
			if t+1 == r.chunks {
				return
			}
			if advance() && !r.send(piece{slot: -1, last: true, addrs: addrs}) {
				return
			}
		}
		slots = slots[:0]
		select {
		case s := <-r.free:
			slots = append(slots, s)
		case <-r.quit:
			return
		}
	greedy:
		for {
			select {
			case s := <-r.free:
				slots = append(slots, s)
			default:
				break greedy
			}
		}
		req, bufs, pieces = req[:0], bufs[:0], pieces[:0]
		si, k, held := 0, 0, -1 // slot being filled, its blocks so far, its last piece
		for si < len(slots) && i < len(addrs) {
			n := min(len(addrs)-i, bps-k)
			s := slots[si]
			req = append(req, addrs[i:i+n]...)
			bufs = append(bufs, r.slots[s][k:k+n]...)
			p := piece{slot: s, lo: k, hi: k + n}
			if i += n; i == len(addrs) {
				p.last, p.addrs = true, addrs
			}
			if k += n; k == bps {
				p.release, si, k = true, si+1, 0
			}
			held, pieces = len(pieces), append(pieces, p)
			for i == len(addrs) && si < len(slots) && t+1 < r.chunks {
				if advance() {
					pieces = append(pieces, piece{slot: -1, last: true, addrs: addrs})
				}
			}
		}
		if k > 0 { // the stream ended inside slot si
			pieces[held].release = true
			si++
		}
		for _, s := range slots[si:] {
			r.free <- s
		}
		if err := r.transfer(req, bufs, pieces); err != nil {
			r.send(piece{slot: -1, err: err})
			return
		}
		for _, p := range pieces {
			if !r.send(p) {
				return
			}
		}
	}
}

// transfer moves one fill's request into its slots, uncharged.  Zero-copy
// arrays borrow the blocks instead, into the slots' views, so the disks
// serve them and the ring only paces the prefetch window; borrowing fails
// exactly where a TransferV would (unwritten block, canceled context).
func (r *Reader) transfer(req []pdm.BlockAddr, bufs [][]int64, pieces []piece) error {
	if !r.a.ZeroCopy() {
		return r.a.TransferV(req, bufs, false)
	}
	views, err := r.a.BorrowReadV(req)
	if err != nil {
		return err
	}
	for _, p := range pieces {
		if p.slot >= 0 {
			views = views[copy(r.slots[p.slot][p.lo:p.hi], views):]
		}
	}
	return nil
}

func (r *Reader) send(p piece) bool {
	select {
	case r.filled <- p:
		return true
	case <-r.quit:
		return false
	}
}

// Fill delivers the next chunk into bufs, whose concatenation receives the
// chunk's blocks in request order (bufs[i] must have length B and there
// must be exactly as many buffers as the chunk has blocks).  The chunk is
// charged on delivery, so stats and traces match the synchronous ReadV the
// caller replaced.
func (r *Reader) Fill(bufs [][]int64) error {
	_, err := r.fill(bufs, true)
	return err
}

// fill delivers the next chunk into the head of bufs and returns its block
// count.  With exact set the chunk must fill bufs completely, as Fill
// requires; otherwise bufs only has to hold it (Pass sizes its buffer for
// the largest chunk).
func (r *Reader) fill(bufs [][]int64, exact bool) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	// A canceled array context aborts here even when the chunk is already
	// staged: the prefetched data was never charged, so the accounting
	// still matches an aborted synchronous execution.
	if err := r.a.CtxErr(); err != nil {
		r.err = err
		return 0, err
	}
	if r.next >= r.chunks {
		return 0, ErrExhausted
	}
	t := r.next
	if r.filled == nil { // synchronous mode
		addrs := r.addrsOf(t)
		if !exact && len(addrs) <= len(bufs) {
			bufs = bufs[:len(addrs)]
		}
		if err := r.a.ReadV(addrs, bufs); err != nil {
			r.err = err
			return 0, err
		}
		r.next++
		return len(addrs), nil
	}
	idx := 0
	stalled := false
	for first := true; ; first = false {
		var p piece
		var ok bool
		if first {
			select {
			case p, ok = <-r.filled:
			default:
				stalled = true
				p, ok = <-r.filled
			}
		} else {
			p, ok = <-r.filled
		}
		if !ok {
			r.err = fmt.Errorf("stream: prefetcher ended early at chunk %d", t)
			return 0, r.err
		}
		if p.err != nil {
			r.err = p.err
			return 0, r.err
		}
		if p.slot >= 0 {
			if idx+p.hi-p.lo > len(bufs) {
				r.err = fmt.Errorf("stream: chunk %d has more blocks than the %d buffers provided", t, len(bufs))
				return 0, r.err
			}
			for _, src := range r.slots[p.slot][p.lo:p.hi] {
				if len(bufs[idx]) != r.a.B() {
					r.err = pdm.ErrBadBlock
					return 0, r.err
				}
				copy(bufs[idx], src)
				idx++
			}
			if p.release {
				r.free <- p.slot
			}
		}
		if p.last {
			if (exact && idx != len(bufs)) || idx != len(p.addrs) {
				r.err = fmt.Errorf("stream: chunk %d has %d blocks, %d buffers provided", t, len(p.addrs), len(bufs))
				return 0, r.err
			}
			r.a.ChargeV(p.addrs, false)
			r.a.RecordPrefetch(!stalled)
			r.next++
			return idx, nil
		}
	}
}

// FillFlat is Fill into a flat buffer carved into B-key block views.
func (r *Reader) FillFlat(dst []int64) error {
	return r.Fill(carve(&r.views, dst, r.a.B()))
}

// Close stops the prefetcher and returns the slots to the arena.  It is
// safe to call mid-stream (e.g. when a pass aborts, even with a slot shared
// by a consumed and an unconsumed chunk) and idempotent; prefetched but
// unconsumed chunks were never charged, so accounting still matches the
// aborted synchronous execution.
func (r *Reader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.filled == nil {
		return
	}
	close(r.quit)
	<-r.done
	r.a.Arena().Free(r.ring)
	r.ring = nil
}

// carve points *views at flat's B-key blocks, reusing its storage, and
// returns them.
func carve(views *[][]int64, flat []int64, b int) [][]int64 {
	n := len(flat) / b
	v := slices.Grow((*views)[:0], n)[:n]
	for i := range v {
		v[i] = flat[i*b : (i+1)*b]
	}
	*views = v
	return v
}
