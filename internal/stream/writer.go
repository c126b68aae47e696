package stream

import (
	"slices"
	"sync"

	"repro/internal/pdm"
)

// wjob is one unit of work for the flusher: either a staged slot to write
// out (its first nblocks blocks, at the slot's addresses) or a flush token
// to acknowledge.
type wjob struct {
	slot    int
	nblocks int
	flush   chan error
}

// Writer performs write-behind: Write charges the request immediately (the
// point where the synchronous code would have issued it), copies the data
// into arena-backed staging slots of pdm.SlotRows stripe rows, and returns
// while a background goroutine performs the physical transfer.  Requests
// fill the slots back to back, and a slot goes to the flusher when it is
// full or at Flush, so consecutive short requests still leave in one call
// per disk run.  Slots are flushed in submission order.  The producer must
// Flush (or Close) before anything reads the written blocks, and must
// Close on every path to return the staging to the arena.
type Writer struct {
	*lists
	a    *pdm.Array
	ring []int64
	free chan int
	jobs chan wjob
	done chan struct{}
	open int // the slot Write is filling, -1 for none
	fill int // blocks in the open slot

	mu     sync.Mutex
	ferr   error // first flusher error
	err    error // sticky producer-side error
	closed bool
	lazy   bool // staging not taken yet: start runs at the first Write
}

// NewWriter creates a Writer on a.  Write-behind depth comes from the
// array's pipeline configuration; depth 0 is fully synchronous.
func NewWriter(a *pdm.Array) (*Writer, error) {
	w := &Writer{lists: freeLists.Take(), a: a}
	if err := w.start(); err != nil {
		w.put()
		return nil, err
	}
	return w, nil
}

// start takes the write-behind staging from the arena and starts the
// flusher.
func (w *Writer) start() error {
	a := w.a
	depth := a.Pipeline().WriteBehind
	if depth == 0 {
		return nil
	}
	bps := pdm.SlotRows * a.D() // blocks per slot
	ring, err := a.Arena().Alloc(depth * bps * a.B())
	if err != nil {
		return err
	}
	w.ring = ring
	w.free = w.carveSlots(ring, depth, bps, a.B())
	w.addrs = slices.Grow(w.addrs[:0], depth)[:depth]
	for i := range w.addrs {
		w.addrs[i] = slices.Grow(w.addrs[i][:0], bps)[:bps]
	}
	w.open = -1
	w.jobs = make(chan wjob, depth)
	w.done = make(chan struct{})
	go w.drain()
	return nil
}

// drain is the flusher goroutine.  Queued jobs are coalesced into one
// vectored transfer per wakeup, amortizing the per-request overhead
// (validation; the per-disk fork on disks that park) over the staging.
// After the first transfer error it keeps consuming jobs and releasing
// slots — discarding the data — so the producer can never deadlock; the
// error surfaces at the next Write, Flush, or Close.
func (w *Writer) drain() {
	defer close(w.done)
	addrs, bufs, held := w.req[:0], w.bufs[:0], w.held[:0]
	defer func() { w.req, w.bufs, w.held = addrs, bufs, held }()
	for job := range w.jobs {
		addrs, bufs, held = addrs[:0], bufs[:0], held[:0]
		var flush chan error
		if job.flush != nil {
			flush = job.flush
		} else {
			addrs = append(addrs, w.addrs[job.slot][:job.nblocks]...)
			bufs = append(bufs, w.slots[job.slot][:job.nblocks]...)
			held = append(held, job.slot)
			// Coalesce whatever else is already queued, stopping at a
			// flush token (it must be acknowledged only after these jobs
			// have landed, which the combined transfer guarantees).
		greedy:
			for {
				select {
				case next, ok := <-w.jobs:
					if !ok {
						break greedy
					}
					if next.flush != nil {
						flush = next.flush
						break greedy
					}
					addrs = append(addrs, w.addrs[next.slot][:next.nblocks]...)
					bufs = append(bufs, w.slots[next.slot][:next.nblocks]...)
					held = append(held, next.slot)
				default:
					break greedy
				}
			}
		}
		if len(addrs) > 0 && w.flusherErr() == nil {
			if err := w.a.TransferV(addrs, bufs, true); err != nil {
				w.mu.Lock()
				w.ferr = err
				w.mu.Unlock()
			}
		}
		for _, s := range held {
			w.free <- s
		}
		if flush != nil {
			flush <- w.flusherErr()
		}
	}
}

func (w *Writer) flusherErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ferr
}

// Write submits one vectored write of bufs[i] to addrs[i].  The request is
// charged before Write returns and the data is copied out of bufs, so the
// caller may immediately reuse both.  If the physical transfer later fails,
// the error surfaces on a subsequent Write, Flush, or Close.
func (w *Writer) Write(addrs []pdm.BlockAddr, bufs [][]int64) error {
	if w.closed {
		return errClosed
	}
	if w.err != nil {
		return w.err
	}
	// Abort before charging when the array's context is canceled — the
	// write-behind path must reject exactly where the synchronous WriteV
	// would, leaving no accounting trace for the rejected request.
	if err := w.a.CtxErr(); err != nil {
		w.err = err
		return err
	}
	if err := w.flusherErr(); err != nil {
		w.err = err
		return err
	}
	if w.lazy {
		w.lazy = false
		if err := w.start(); err != nil {
			w.err = err
			return err
		}
	}
	if w.jobs == nil { // synchronous mode
		if err := w.a.WriteV(addrs, bufs); err != nil {
			w.err = err
			return err
		}
		return nil
	}
	// Validate everything before charging, exactly like the synchronous
	// WriteV: a rejected request must leave no accounting trace.
	if err := w.a.ValidateV(addrs, bufs); err != nil {
		w.err = err
		return err
	}
	if len(addrs) == 0 {
		return nil
	}
	w.a.ChargeV(addrs, true)
	stalled := false
	for i := 0; i < len(addrs); {
		if w.open < 0 {
			select {
			case w.open = <-w.free:
			default:
				stalled = true
				w.open = <-w.free
			}
		}
		n := copy(w.addrs[w.open][w.fill:], addrs[i:])
		for k, buf := range bufs[i : i+n] {
			copy(w.slots[w.open][w.fill+k], buf)
		}
		i += n
		if w.fill += n; w.fill == len(w.slots[w.open]) {
			w.queue()
		}
	}
	w.a.RecordWriteBehind(!stalled)
	return nil
}

// queue hands the open slot to the flusher.
func (w *Writer) queue() {
	w.jobs <- wjob{slot: w.open, nblocks: w.fill}
	w.open, w.fill = -1, 0
}

// WriteFlat is Write from a flat buffer carved into B-key block views.
func (w *Writer) WriteFlat(addrs []pdm.BlockAddr, src []int64) error {
	if w.closed {
		return errClosed
	}
	return w.Write(addrs, carve(&w.views, src, w.a.B()))
}

// WriteStripe is WriteFlat to keys [keyOff, keyOff+len(src)) of s, whose
// addresses the Writer lists in a buffer of its own, so a warm pass builds
// no write list.
func (w *Writer) WriteStripe(s *pdm.Stripe, keyOff int, src []int64) error {
	if w.closed {
		return errClosed
	}
	var err error
	if w.out, err = s.AppendAddrs(w.out[:0], keyOff, len(src)); err != nil {
		return err
	}
	return w.WriteFlat(w.out, src)
}

// Flush blocks until every submitted request has reached the disks and
// returns the first transfer error, if any.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.jobs == nil {
		return nil
	}
	if w.open >= 0 {
		w.queue()
	}
	ack := make(chan error, 1)
	w.jobs <- wjob{flush: ack}
	if err := <-ack; err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes, stops the flusher, and returns the staging to the arena.
// It is idempotent; the first call's error is remembered.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	ferr := w.Flush()
	if w.jobs != nil {
		close(w.jobs)
		<-w.done
		w.a.Arena().Free(w.ring)
		w.ring = nil
	}
	w.put()
	w.lists = nil
	if w.err == nil {
		w.err = ferr
	}
	return ferr
}
