package pdm

import (
	"fmt"
	"sync"
)

// ReadV reads addrs[i] into bufs[i] for all i.  The request is charged
// max_d(#blocks on disk d) parallel I/O steps — the PDM cost of a vectored
// transfer — whatever the physical execution: the blocks move in request
// order on the calling goroutine, except on disks that park their caller
// (see transferV).  Buffers must each have length B.
func (a *Array) ReadV(addrs []BlockAddr, bufs [][]int64) error {
	return a.execV(addrs, bufs, false)
}

// WriteV writes bufs[i] to addrs[i] for all i, with the same cost accounting
// and execution as ReadV.
func (a *Array) WriteV(addrs []BlockAddr, bufs [][]int64) error {
	return a.execV(addrs, bufs, true)
}

func (a *Array) execV(addrs []BlockAddr, bufs [][]int64, write bool) error {
	if err := a.TransferV(addrs, bufs, write); err != nil {
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
	if err := a.CtxErr(); err != nil {
		return err
	}
	if err := a.ValidateV(addrs, bufs); err != nil {
		return err
	}
	return a.transferV(addrs, bufs, write)
}

// transferV moves the request's blocks in order on the calling goroutine:
// the streaming layer's prefetch and write-behind goroutines already are the
// overlap.  Only when the disks park their caller (LatencyDisk) does it fork,
// one goroutine per participating disk, so that a request waits max_d(#blocks
// on disk d) service times — one per parallel I/O step, as the model charges
// — instead of their sum.
func (a *Array) transferV(addrs []BlockAddr, bufs [][]int64, write bool) error {
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

// ZeroCopy reports whether every disk in the array serves borrowed block
// views, i.e. whether the Borrow APIs below work.  It is decided once at
// construction: an array mixing capable and incapable disks (or wrapping
// them in LatencyDisk) reports false and callers use the copying path.
func (a *Array) ZeroCopy() bool { return a.zc != nil }

// BorrowReadV returns direct views of the addressed blocks, in request
// order, WITHOUT copying, charging steps, or recording the trace — the
// zero-copy analogue of TransferV(write=false).  Callers pair it with
// ChargeV exactly once per logical request, in program order, so stats
// and traces are identical to the copying execution.  Views stay valid
// until the array is closed and must not be written through.
func (a *Array) BorrowReadV(addrs []BlockAddr) ([][]int64, error) {
	if a.zc == nil {
		return nil, errNoZeroCopy
	}
	if err := a.CtxErr(); err != nil {
		return nil, err
	}
	if err := a.validateAddrs(addrs); err != nil {
		return nil, err
	}
	views := make([][]int64, len(addrs))
	for i, ad := range addrs {
		v, err := a.zc[ad.Disk].ReadBlockZero(ad.Off)
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	return views, nil
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
	perDisk := make([]int, a.cfg.D)
	steps := 0
	for _, ad := range addrs {
		perDisk[ad.Disk]++
		if perDisk[ad.Disk] > steps {
			steps = perDisk[ad.Disk]
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.stats.SimTime += float64(steps) * (a.cfg.SeekTime + float64(a.cfg.B)*a.cfg.TransferPerKey)
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

// splitBlocks carves flat (len a multiple of B) into B-key block views.
func (a *Array) splitBlocks(flat []int64) [][]int64 {
	nb := len(flat) / a.cfg.B
	bufs := make([][]int64, nb)
	for i := range bufs {
		bufs[i] = flat[i*a.cfg.B : (i+1)*a.cfg.B]
	}
	return bufs
}
