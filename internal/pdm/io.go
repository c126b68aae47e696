package pdm

import (
	"fmt"
	"slices"
	"sync"
)

// ReadV reads addrs[i] into bufs[i] for all i.  The request is charged
// max_d(#blocks on disk d) parallel I/O steps — the PDM cost of a vectored
// transfer — whatever the physical execution: the blocks move in request
// order on the calling goroutine, except on disks that park their caller
// (see transferV).  Buffers must each have length B.
func (a *Array) ReadV(addrs []BlockAddr, bufs [][]int64) error {
	return a.execV(nil, addrs, bufs, false)
}

// WriteV writes bufs[i] to addrs[i] for all i, with the same cost accounting
// and execution as ReadV.
func (a *Array) WriteV(addrs []BlockAddr, bufs [][]int64) error {
	return a.execV(nil, addrs, bufs, true)
}

// execV is a charged transferV.
func (a *Array) execV(g *runs, addrs []BlockAddr, bufs [][]int64, write bool) error {
	if err := a.transferV(g, addrs, bufs, write); err != nil {
		return err
	}
	a.ChargeV(addrs, write)
	return nil
}

// ValidateV checks a vectored request — matching lengths, addresses on
// existing disks, B-key buffers — without touching the disks or the
// accounting.  The streaming layer validates before charging so that a
// rejected request leaves no trace, exactly like ReadV/WriteV.
func (a *Array) ValidateV(addrs []BlockAddr, bufs [][]int64) error {
	if len(addrs) != len(bufs) {
		return fmt.Errorf("pdm: %d addrs but %d buffers", len(addrs), len(bufs))
	}
	for i, ad := range addrs {
		if ad.Disk < 0 || ad.Disk >= a.cfg.D {
			return fmt.Errorf("%w: disk %d of %d", ErrOutOfRange, ad.Disk, a.cfg.D)
		}
		if len(bufs[i]) != a.cfg.B {
			return ErrBadBlock
		}
	}
	return nil
}

// TransferV moves the data of a vectored request — addrs[i] into/out of
// bufs[i] — WITHOUT charging steps or recording the trace.  The streaming
// layer (internal/stream) uses it to overlap physical transfers with
// computation while charging each logical request exactly once through
// ChargeV, so the PDM cost model cannot observe the overlap.
func (a *Array) TransferV(addrs []BlockAddr, bufs [][]int64, write bool) error {
	return a.transferV(nil, addrs, bufs, write)
}

// transferV is TransferV, moving the request's blocks on the calling
// goroutine: the streaming layer's prefetch and write-behind goroutines
// already are the overlap.  On extent-capable arrays each disk's blocks go
// out as runs of consecutive offsets, one ReadBlocks/WriteBlocks call per
// run (see runs), cut in g or, when g is nil, in a scratch of its own;
// otherwise one block call each, in request order.  Only
// when the disks park their caller (LatencyDisk) does it fork, one
// goroutine per participating disk, so that a request waits max_d(#blocks
// on disk d) service times — one per parallel I/O step, as the model
// charges — instead of their sum.
func (a *Array) transferV(g *runs, addrs []BlockAddr, bufs [][]int64, write bool) error {
	if err := a.CtxErr(); err != nil {
		return err
	}
	if err := a.ValidateV(addrs, bufs); err != nil {
		return err
	}
	if a.ext != nil {
		if g == nil {
			g = a.passRuns.take()
			defer a.passRuns.put(g)
		}
		return g.move(a.ext, addrs, bufs, write)
	}
	if !a.fanOut {
		return a.transferOn(-1, addrs, bufs, write)
	}
	var wg sync.WaitGroup
	errs := make([]error, a.cfg.D)
	forked := make([]bool, a.cfg.D)
	for _, ad := range addrs {
		if d := ad.Disk; !forked[d] {
			forked[d] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[d] = a.transferOn(d, addrs, bufs, write)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// transferOn moves, in request order, the request's blocks that live on
// disk d — all of them when d < 0.
func (a *Array) transferOn(d int, addrs []BlockAddr, bufs [][]int64, write bool) error {
	for i, ad := range addrs {
		if d >= 0 && ad.Disk != d {
			continue
		}
		var err error
		if write {
			err = a.disks[ad.Disk].WriteBlock(ad.Off, bufs[i])
		} else {
			err = a.disks[ad.Disk].ReadBlock(ad.Off, bufs[i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runs is one transfer's scratch for moving a request as per-disk runs: the
// request's blocks stably sorted by disk, so each disk's blocks keep request
// order, then cut wherever the next offset is not the previous one plus one.
// A stripe row range thus becomes one run per disk — k rows, k blocks per
// call.  The array keeps freed scratch for the next transfer (runsList),
// so a transfer allocates only while its request outgrows every scratch on
// hand.  A Stripe stage lists its request and cuts its runs in one
// scratch, so the two never trade a grown scratch for a small one, and
// stages keep their scratch apart from the passes': a whole-stripe load or
// unload lists every block of the stripe, and taking a pass's small
// scratch would regrow it at whichever stage the passes' timing left one
// on top.
type runs struct {
	end  []int     // per disk: the end of its blocks in off and bufs
	off  []int     // block offsets, grouped by disk
	bufs [][]int64 // block buffers, grouped by disk

	// A Stripe transfer's request (stripe.go): its addresses, its block
	// views, and the staged blocks beyond its whole caller blocks (a tail,
	// then one sentinel block for all the padding).
	addrs []BlockAddr
	views [][]int64
	blk   []int64
}

// move transfers bufs[i] to or from addrs[i] on disks, one call per run.
func (g *runs) move(disks []ExtentDisk, addrs []BlockAddr, bufs [][]int64, write bool) error {
	n := len(addrs)
	g.end = slices.Grow(g.end[:0], len(disks))[:len(disks)]
	g.off = slices.Grow(g.off[:0], n)[:n]
	g.bufs = slices.Grow(g.bufs[:0], n)[:n]
	defer clear(g.bufs) // hold no caller memory between transfers
	clear(g.end)
	for _, ad := range addrs {
		g.end[ad.Disk]++
	}
	at := 0
	for d, c := range g.end {
		g.end[d], at = at, at+c // the start, until placement advances it
	}
	for i, ad := range addrs {
		p := g.end[ad.Disk]
		g.off[p], g.bufs[p] = ad.Off, bufs[i]
		g.end[ad.Disk]++
	}
	lo := 0
	for d, disk := range disks {
		move := disk.ReadBlocks
		if write {
			move = disk.WriteBlocks
		}
		for hi := g.end[d]; lo < hi; {
			e := lo + 1
			for e < hi && g.off[e] == g.off[e-1]+1 {
				e++
			}
			if err := move(g.off[lo], g.bufs[lo:e]); err != nil {
				return err
			}
			lo = e
		}
	}
	return nil
}

// runsList is spare runs scratch, taken last in, first out.
type runsList struct {
	mu   sync.Mutex
	free []*runs
}

// take hands the calling transfer a scratch of its own.
func (l *runsList) take() *runs {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		g := l.free[n-1]
		l.free = l.free[:n-1]
		return g
	}
	return new(runs)
}

// put keeps g for a later transfer.
func (l *runsList) put(g *runs) {
	l.mu.Lock()
	l.free = append(l.free, g)
	l.mu.Unlock()
}

// ZeroCopy reports whether every disk in the array serves borrowed block
// views, i.e. whether the Borrow APIs below work.  It is decided once at
// construction: an array mixing capable and incapable disks (or wrapping
// them in LatencyDisk) reports false and callers use the copying path.
func (a *Array) ZeroCopy() bool { return a.zc != nil }

// BorrowReadV points views[i] at a direct view of block addrs[i] WITHOUT
// copying, charging steps, or recording the trace — the zero-copy analogue
// of TransferV(write=false).  Callers pair it with ChargeV exactly once
// per logical request, in program order, so stats and traces are
// identical to the copying execution.  Views stay valid until the array
// is closed and must not be written through.
func (a *Array) BorrowReadV(addrs []BlockAddr, views [][]int64) error {
	if a.zc == nil {
		return errNoZeroCopy
	}
	if err := a.CtxErr(); err != nil {
		return err
	}
	if len(views) != len(addrs) {
		return fmt.Errorf("pdm: %d addrs but %d views", len(addrs), len(views))
	}
	if err := a.validateAddrs(addrs); err != nil {
		return err
	}
	for i, ad := range addrs {
		v, err := a.zc[ad.Disk].ReadBlockZero(ad.Off)
		if err != nil {
			return err
		}
		views[i] = v
	}
	return nil
}

// BorrowWrite returns a writable view of block addr, growing the disk to
// cover it — the zero-copy analogue of one block of TransferV(write=true).
// The block counts as written immediately; the caller fills the view and
// charges the request through ChargeV exactly as a TransferV user would.
func (a *Array) BorrowWrite(addr BlockAddr) ([]int64, error) {
	if a.zc == nil {
		return nil, errNoZeroCopy
	}
	if err := a.CtxErr(); err != nil {
		return nil, err
	}
	if addr.Disk < 0 || addr.Disk >= a.cfg.D {
		return nil, fmt.Errorf("%w: disk %d of %d", ErrOutOfRange, addr.Disk, a.cfg.D)
	}
	return a.zc[addr.Disk].WriteBlockZero(addr.Off)
}

// validateAddrs checks that every address names an existing disk.
func (a *Array) validateAddrs(addrs []BlockAddr) error {
	for _, ad := range addrs {
		if ad.Disk < 0 || ad.Disk >= a.cfg.D {
			return fmt.Errorf("%w: disk %d of %d", ErrOutOfRange, ad.Disk, a.cfg.D)
		}
	}
	return nil
}

// ChargeV records the accounting of one vectored request as if it executed
// synchronously now: max-per-disk parallel steps, block counters, simulated
// time, and the trace entry.  Callers pairing it with TransferV must invoke
// it exactly once per logical request, in the algorithm's program order, so
// that stats and traces are identical to the unpipelined execution.
func (a *Array) ChargeV(addrs []BlockAddr, write bool) {
	if len(addrs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	perDisk := a.perDisk
	clear(perDisk)
	steps := 0
	for _, ad := range addrs {
		perDisk[ad.Disk]++
		if perDisk[ad.Disk] > steps {
			steps = perDisk[ad.Disk]
		}
	}
	a.account(len(addrs), steps, write)
	a.recordTrace(addrs, write)
}

// account assumes a.mu is held.
func (a *Array) account(blocks, steps int, write bool) {
	if write {
		a.stats.BlocksWritten += int64(blocks)
		a.stats.WriteSteps += int64(steps)
	} else {
		a.stats.BlocksRead += int64(blocks)
		a.stats.ReadSteps += int64(steps)
	}
}

// RecordPrefetch counts one streamed read chunk: a hit if the prefetcher had
// it ready when the consumer asked, a stall otherwise.
func (a *Array) RecordPrefetch(hit bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if hit {
		a.stats.PrefetchHits++
	} else {
		a.stats.PrefetchStalls++
	}
}

// RecordWriteBehind counts one streamed write request: a hit if staging was
// free when the producer pushed, a stall if the producer had to wait.
func (a *Array) RecordWriteBehind(hit bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if hit {
		a.stats.WriteBehindHits++
	} else {
		a.stats.WriteBehindStalls++
	}
}

// appendBlocks appends the B-key block views of flat (its length a
// multiple of b) to views.
func appendBlocks(views [][]int64, flat []int64, b int) [][]int64 {
	for i := 0; i < len(flat); i += b {
		views = append(views, flat[i:i+b])
	}
	return views
}
