package stream

import (
	"sync"

	"repro/internal/pdm"
)

// wjob is one unit of work for the flusher: either a staged slot to write
// out or a flush token to acknowledge.
type wjob struct {
	slot    int
	nblocks int
	addrs   []pdm.BlockAddr
	flush   chan error
}

// Writer performs write-behind: Write charges the request immediately (the
// point where the synchronous code would have issued it), copies the data
// into arena-backed staging, and returns while a background goroutine
// performs the physical transfer.  Requests are flushed in submission
// order.  The producer must Flush (or Close) before anything reads the
// written blocks, and must Close on every path to return the staging to
// the arena.
type Writer struct {
	a     *pdm.Array
	ring  []int64
	slots [][][]int64
	free  chan int
	jobs  chan wjob
	done  chan struct{}

	mu     sync.Mutex
	ferr   error // first flusher error
	err    error // sticky producer-side error
	closed bool
	lazy   bool // staging not taken yet: start runs at the first Write
}

// NewWriter creates a Writer on a.  Write-behind depth comes from the
// array's pipeline configuration; depth 0 is fully synchronous.
func NewWriter(a *pdm.Array) (*Writer, error) {
	w := &Writer{a: a}
	if err := w.start(); err != nil {
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
	dxb := a.StripeWidth()
	ring, err := a.Arena().Alloc(depth * dxb)
	if err != nil {
		return err
	}
	w.ring = ring
	w.slots = make([][][]int64, depth)
	w.free = make(chan int, depth)
	for i := 0; i < depth; i++ {
		slot := ring[i*dxb : (i+1)*dxb]
		views := make([][]int64, a.D())
		for j := range views {
			views[j] = slot[j*a.B() : (j+1)*a.B()]
		}
		w.slots[i] = views
		w.free <- i
	}
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
	var addrs []pdm.BlockAddr
	var bufs [][]int64
	var held []int
	for job := range w.jobs {
		addrs, bufs, held = addrs[:0], bufs[:0], held[:0]
		var flush chan error
		if job.flush != nil {
			flush = job.flush
		} else {
			addrs = append(addrs, job.addrs...)
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
					addrs = append(addrs, next.addrs...)
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
	bps := w.a.D()
	stalled := false
	for i := 0; i < len(addrs); i += bps {
		j := i + bps
		if j > len(addrs) {
			j = len(addrs)
		}
		var slot int
		select {
		case slot = <-w.free:
		default:
			stalled = true
			slot = <-w.free
		}
		for k := i; k < j; k++ {
			copy(w.slots[slot][k-i], bufs[k])
		}
		// The caller may reuse addrs after Write returns; the job keeps its
		// own copy.
		sub := make([]pdm.BlockAddr, j-i)
		copy(sub, addrs[i:j])
		w.jobs <- wjob{slot: slot, nblocks: j - i, addrs: sub}
	}
	w.a.RecordWriteBehind(!stalled)
	return nil
}

// WriteFlat is Write from a flat buffer carved into B-key block views.
func (w *Writer) WriteFlat(addrs []pdm.BlockAddr, src []int64) error {
	return w.Write(addrs, splitBlocks(w.a, src))
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
	if w.err == nil {
		w.err = ferr
	}
	return ferr
}
