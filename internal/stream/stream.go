package stream

import (
	"errors"
	"fmt"

	"repro/internal/pdm"
)

// ErrExhausted is returned by Reader.Fill after the last chunk has been
// consumed.
var ErrExhausted = errors.New("stream: read past the final chunk")

// batch is one slot-sized piece of a chunk travelling from the fetcher to
// the consumer.
type batch struct {
	slot    int // index into Reader.slots; -1 when err != nil or empty chunk
	nblocks int
	views   [][]int64       // zero-copy block views; nil on the copying path
	last    bool            // final piece of its chunk
	addrs   []pdm.BlockAddr // full chunk address list, set when last
	err     error
}

// Reader streams a fixed sequence of vectored read requests ("chunks") with
// prefetch: chunk t's addresses are produced by addrsOf(t), its data is
// fetched ahead on a background goroutine into arena-backed stripe buffers,
// and Fill hands chunks to the consumer in order, charging each one as it
// is consumed.
type Reader struct {
	a       *pdm.Array
	chunks  int
	addrsOf func(int) []pdm.BlockAddr
	next    int
	err     error

	// pipelined mode (nil channels mean synchronous):
	ring   []int64
	slots  [][][]int64 // slot -> block views
	zc     bool        // disks serve borrowed views; slots pace, not stage
	free   chan int
	filled chan batch
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
	dxb := a.StripeWidth()
	ring, err := a.Arena().Alloc(depth * dxb)
	if err != nil {
		return nil, err
	}
	r.ring = ring
	r.slots = make([][][]int64, depth)
	r.free = make(chan int, depth)
	for i := 0; i < depth; i++ {
		slot := ring[i*dxb : (i+1)*dxb]
		views := make([][]int64, a.D())
		for j := range views {
			views[j] = slot[j*a.B() : (j+1)*a.B()]
		}
		r.slots[i] = views
		r.free <- i
	}
	r.zc = a.ZeroCopy()
	r.filled = make(chan batch, depth)
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
	if _, err := s.AddrRange(start, n); err != nil {
		return nil, err
	}
	chunks := (n + chunkKeys - 1) / chunkKeys
	addrsOf := func(t int) []pdm.BlockAddr {
		off := t * chunkKeys
		cn := chunkKeys
		if off+cn > n {
			cn = n - off
		}
		addrs, err := s.AddrRange(start+off, cn)
		if err != nil {
			// The whole range was validated above; a per-chunk failure is
			// unreachable.
			panic(err)
		}
		return addrs
	}
	return NewReader(s.Array(), chunks, addrsOf)
}

// fetch is the prefetch goroutine: it walks the chunk sequence, transferring
// slot-sized pieces into the ring without charging them.  It grabs as many
// free slots as are immediately available and moves them in one vectored
// transfer, so the per-request overhead (validation; the per-disk fork on
// disks that park) is amortized over everything the ring can hold.
func (r *Reader) fetch() {
	defer close(r.done)
	defer close(r.filled)
	bps := r.a.D() // blocks per slot
	var slots []int
	bufs := make([][]int64, 0, len(r.slots)*bps)
	for t := 0; t < r.chunks; t++ {
		addrs := r.addrsOf(t)
		if len(addrs) == 0 {
			if !r.send(batch{slot: -1, last: true, addrs: addrs}) {
				return
			}
			continue
		}
		for i := 0; i < len(addrs); {
			// One blocking slot acquisition, then take whatever else is
			// free (bounded by what the chunk still needs).
			slots = slots[:0]
			select {
			case s := <-r.free:
				slots = append(slots, s)
			case <-r.quit:
				return
			}
			need := (len(addrs) - i + bps - 1) / bps
		greedy:
			for len(slots) < need {
				select {
				case s := <-r.free:
					slots = append(slots, s)
				default:
					break greedy
				}
			}
			j := i + len(slots)*bps
			if j > len(addrs) {
				j = len(addrs)
			}
			var views [][]int64
			if r.zc {
				// Zero-copy backends serve the blocks as direct views, so
				// the ring slots only pace the prefetch window — no staging
				// transfer happens here.  Borrowing fails exactly where a
				// TransferV would (unwritten block, canceled context).
				var err error
				views, err = r.a.BorrowReadV(addrs[i:j])
				if err != nil {
					r.send(batch{slot: -1, err: err})
					return
				}
			} else {
				bufs = bufs[:0]
				for k := i; k < j; k++ {
					s := slots[(k-i)/bps]
					bufs = append(bufs, r.slots[s][(k-i)%bps])
				}
				if err := r.a.TransferV(addrs[i:j], bufs, false); err != nil {
					r.send(batch{slot: -1, err: err})
					return
				}
			}
			for si, s := range slots {
				lo := i + si*bps
				hi := lo + bps
				if hi > j {
					hi = j
				}
				bt := batch{slot: s, nblocks: hi - lo}
				if views != nil {
					bt.views = views[lo-i : hi-i]
				}
				if hi == len(addrs) {
					bt.last = true
					bt.addrs = addrs
				}
				if !r.send(bt) {
					return
				}
			}
			i = j
		}
	}
}

func (r *Reader) send(bt batch) bool {
	select {
	case r.filled <- bt:
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
	if r.err != nil {
		return r.err
	}
	// A canceled array context aborts here even when the chunk is already
	// staged: the prefetched data was never charged, so the accounting
	// still matches an aborted synchronous execution.
	if err := r.a.CtxErr(); err != nil {
		r.err = err
		return err
	}
	if r.next >= r.chunks {
		return ErrExhausted
	}
	t := r.next
	if r.filled == nil { // synchronous mode
		if err := r.a.ReadV(r.addrsOf(t), bufs); err != nil {
			r.err = err
			return err
		}
		r.next++
		return nil
	}
	idx := 0
	stalled := false
	first := true
	for {
		var bt batch
		var ok bool
		if first {
			select {
			case bt, ok = <-r.filled:
			default:
				stalled = true
				bt, ok = <-r.filled
			}
			first = false
		} else {
			bt, ok = <-r.filled
		}
		if !ok {
			r.err = fmt.Errorf("stream: prefetcher ended early at chunk %d", t)
			return r.err
		}
		if bt.err != nil {
			r.err = bt.err
			return r.err
		}
		if bt.slot >= 0 {
			if idx+bt.nblocks > len(bufs) {
				r.err = fmt.Errorf("stream: chunk %d has more blocks than the %d buffers provided", t, len(bufs))
				return r.err
			}
			for k := 0; k < bt.nblocks; k++ {
				if len(bufs[idx+k]) != r.a.B() {
					r.err = pdm.ErrBadBlock
					return r.err
				}
				src := r.slots[bt.slot][k]
				if bt.views != nil {
					src = bt.views[k]
				}
				copy(bufs[idx+k], src)
			}
			idx += bt.nblocks
			r.free <- bt.slot
		}
		if bt.last {
			if idx != len(bufs) || idx != len(bt.addrs) {
				r.err = fmt.Errorf("stream: chunk %d has %d blocks, %d buffers provided", t, len(bt.addrs), len(bufs))
				return r.err
			}
			r.a.ChargeV(bt.addrs, false)
			r.a.RecordPrefetch(!stalled)
			r.next++
			return nil
		}
	}
}

// FillFlat is Fill into a flat buffer carved into B-key block views.
func (r *Reader) FillFlat(dst []int64) error {
	return r.Fill(splitBlocks(r.a, dst))
}

// Remaining returns the number of chunks not yet consumed.
func (r *Reader) Remaining() int { return r.chunks - r.next }

// Close stops the prefetcher and returns the ring to the arena.  It is safe
// to call mid-stream (e.g. when a pass aborts) and idempotent; prefetched
// but unconsumed chunks were never charged, so accounting still matches the
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

func splitBlocks(a *pdm.Array, flat []int64) [][]int64 {
	b := a.B()
	bufs := make([][]int64, len(flat)/b)
	for i := range bufs {
		bufs[i] = flat[i*b : (i+1)*b]
	}
	return bufs
}
