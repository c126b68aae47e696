package stream

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/freelist"
	"repro/internal/pdm"
)

// ErrExhausted is returned by Reader.Fill after the last chunk has been
// consumed.
var ErrExhausted = errors.New("stream: read past the final chunk")

var errClosed = errors.New("stream: use after Close")

// lists is the host bookkeeping of one Reader or Writer: block views of
// the caller's buffer and of the staging slots, address buffers, and one
// transfer's lists.  Every size in it is bounded by a chunk or the staging,
// so it is kept in freeLists from Close to the next constructor, grown to
// fit, and a warm pass builds none of it.
type lists struct {
	views  [][]int64         // block views of the caller's buffer
	ring   [][]int64         // block views of the staging ring
	slots  [][][]int64       // slot -> its views of ring
	addrs  [][]pdm.BlockAddr // a Writer's per-slot addresses
	chunk  []pdm.BlockAddr   // the prefetcher's chunk
	out    []pdm.BlockAddr   // the consumer's chunk; a Writer's WriteStripe request
	req    []pdm.BlockAddr   // one transfer's addresses
	bufs   [][]int64         // its blocks
	held   []int             // and its slots
	pieces []piece           // a Reader fill's pieces
}

// freeLists holds the lists Close handed back, so a warm pass allocates
// the same whether or not the GC ran before it.
var freeLists freelist.List[lists]

// put drops l's views of caller and staging memory and hands it back.
func (l *lists) put() {
	clear(l.views[:cap(l.views)])
	clear(l.ring[:cap(l.ring)])
	clear(l.slots[:cap(l.slots)])
	clear(l.bufs[:cap(l.bufs)])
	freeLists.Put(l)
}

// carveSlots carves ring into depth slots of bps B-key block views and
// returns the free list, holding all of them.
func (l *lists) carveSlots(ring []int64, depth, bps, b int) chan int {
	views := carve(&l.ring, ring, b)
	l.slots = slices.Grow(l.slots[:0], depth)[:depth]
	free := make(chan int, depth)
	for i := range l.slots {
		l.slots[i] = views[i*bps : (i+1)*bps : (i+1)*bps]
		free <- i
	}
	return free
}

// piece is one run of a chunk's blocks inside one slot, travelling from
// the fetcher to the consumer.  A slot may hold pieces of several chunks,
// and a chunk may span several slots.
type piece struct {
	slot    int  // index into Reader.slots; -1 for an empty chunk or an error
	lo, hi  int  // the slot's blocks [lo, hi)
	release bool // the slot's last piece: the slot is free once it is consumed
	last    bool // final piece of its chunk
	err     error
}

// Reader streams a fixed sequence of vectored read requests ("chunks") with
// prefetch: chunk t's addresses are planned by plan(t, dst), its data is
// fetched ahead on a background goroutine into arena-backed slots of
// pdm.SlotRows stripe rows, and Fill hands chunks to the consumer in order,
// charging each one as it is consumed.
type Reader struct {
	*lists
	a      *pdm.Array
	chunks int
	plan   func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr
	next   int
	err    error

	// pipelined mode (nil channels mean synchronous):
	ring   []int64 // unused on zero-copy arrays: their slots hold borrowed views
	free   chan int
	filled chan piece
	quit   chan struct{}
	done   chan struct{}
	closed bool
}

// NewReader creates a Reader over chunks chunks whose block addresses are
// planned by plan: plan(t, dst) appends chunk t's addresses to dst, which
// is empty, and returns the result, which the Reader keeps as its buffer
// for the next plan, so a warm plan allocates nothing.  The prefetcher
// plans a chunk to fetch it and the consumer plans it again to charge it,
// so plan must be pure address arithmetic, safe to call from two
// goroutines at once, as all in-tree plans are.  Prefetch depth comes from
// the array's pipeline configuration; depth 0 is fully synchronous.
func NewReader(a *pdm.Array, chunks int, plan func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr) (*Reader, error) {
	r := &Reader{lists: freeLists.Take(), a: a, chunks: chunks, plan: plan}
	depth := a.Pipeline().Prefetch
	if depth == 0 || chunks == 0 {
		return r, nil
	}
	bps := pdm.SlotRows * a.D() // blocks per slot
	var err error
	if r.ring, err = a.Arena().Alloc(depth * bps * a.B()); err != nil {
		r.put()
		return nil, err
	}
	r.free = r.carveSlots(r.ring, depth, bps, a.B())
	// A slot usually carries at most two pieces (the tail of one chunk and
	// the head of the next), so the fetcher can hand over a whole fill
	// without waiting on the consumer.
	r.filled = make(chan piece, 2*depth)
	r.quit = make(chan struct{})
	r.done = make(chan struct{})
	go r.fetch()
	return r, nil
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
	chunks, plan := stripeChunks(s, start, n, chunkKeys)
	return NewReader(s.Array(), chunks, plan)
}

// stripeChunks plans a sequential read of keys [start, start+n) of s in
// chunkKeys-key chunks (the last may be shorter): the chunk count and the
// plan of chunk t.  The range must be valid.
func stripeChunks(s *pdm.Stripe, start, n, chunkKeys int) (int, func(int, []pdm.BlockAddr) []pdm.BlockAddr) {
	return (n + chunkKeys - 1) / chunkKeys, func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr {
		off := t * chunkKeys
		addrs, err := s.AppendAddrs(dst, start+off, min(chunkKeys, n-off))
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
	addrs, t, i := r.chunk[:0], -1, 0 // chunk t's; its blocks from i on are still to fetch
	slots, req, bufs, pieces := r.held[:0], r.req[:0], r.bufs[:0], r.pieces[:0]
	defer func() { r.chunk, r.held, r.req, r.bufs, r.pieces = addrs, slots, req, bufs, pieces }()
	// advance moves the cursor to the next chunk, reporting an empty one.
	// Chunk t's blocks are in req by then, so its plan buffer is free.
	advance := func() bool {
		t++
		addrs, i = r.plan(t, addrs[:0]), 0
		return len(addrs) == 0
	}
	for {
		for i == len(addrs) {
			if t+1 == r.chunks {
				return
			}
			if advance() && !r.send(piece{slot: -1, last: true}) {
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
				p.last = true
			}
			if k += n; k == bps {
				p.release, si, k = true, si+1, 0
			}
			held, pieces = len(pieces), append(pieces, p)
			for i == len(addrs) && si < len(slots) && t+1 < r.chunks {
				if advance() {
					pieces = append(pieces, piece{slot: -1, last: true})
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
	if err := r.a.BorrowReadV(req, bufs); err != nil {
		return err
	}
	for _, p := range pieces {
		if p.slot >= 0 {
			bufs = bufs[copy(r.slots[p.slot][p.lo:p.hi], bufs):]
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
	r.out = r.plan(t, r.out[:0])
	if r.filled == nil { // synchronous mode
		if !exact && len(r.out) <= len(bufs) {
			bufs = bufs[:len(r.out)]
		}
		if err := r.a.ReadV(r.out, bufs); err != nil {
			r.err = err
			return 0, err
		}
		r.next++
		return len(r.out), nil
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
			if (exact && idx != len(bufs)) || idx != len(r.out) {
				r.err = fmt.Errorf("stream: chunk %d has %d blocks, %d buffers provided", t, len(r.out), len(bufs))
				return 0, r.err
			}
			r.a.ChargeV(r.out, false)
			r.a.RecordPrefetch(!stalled)
			r.next++
			return idx, nil
		}
	}
}

// FillFlat is Fill into a flat buffer carved into B-key block views.
func (r *Reader) FillFlat(dst []int64) error {
	if r.closed {
		return errClosed
	}
	return r.Fill(carve(&r.views, dst, r.a.B()))
}

// Close stops the prefetcher and returns the slots to the arena.  It is
// safe to call mid-stream (e.g. when a pass aborts, even with a slot shared
// by a consumed and an unconsumed chunk) and idempotent; prefetched but
// unconsumed chunks were never charged, so accounting still matches the
// aborted synchronous execution.  A Fill after Close fails.
func (r *Reader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.err == nil {
		r.err = errClosed
	}
	if r.filled != nil {
		close(r.quit)
		<-r.done
		r.a.Arena().Free(r.ring)
		r.ring = nil
	}
	r.put()
	r.lists = nil
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
