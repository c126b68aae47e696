package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// MultiwayMergeSort sorts in with the classical external merge sort the
// paper positions itself against (Section 1: asymptotically optimal — e.g.
// Dementiev–Sanders — but taking more passes at practical sizes): one run
// formation pass, then ⌈log_k(N/M)⌉ k-way merge passes with fan-in
// k = M/(2B) (each lane double-buffered: one block being consumed, one
// block of lookahead, plus a D·B output buffer).
//
// Reads during a merge are demand-driven: whenever a lane's buffer drains
// below one block, the refills are batched into one vectored request.  Runs
// are placed on skewed stripes, so refill batches usually spread across the
// disks, but — unlike the oblivious algorithms — balance is not guaranteed;
// the measured efficiency quantifies the gap (this is the phenomenon that
// motivates forecasting/randomized-cycling in the literature).
func MultiwayMergeSort(a *pdm.Array, in *pdm.Stripe) (*core.Result, error) {
	m, b := a.Mem(), a.B()
	n := in.Len()
	if n%m != 0 {
		return nil, fmt.Errorf("baseline: multiway merge sort needs N a multiple of M; N = %d, M = %d", n, m)
	}
	fanIn := m / (2 * b)
	if fanIn < 2 {
		return nil, fmt.Errorf("baseline: M/(2B) = %d too small for merging", fanIn)
	}
	start := a.Stats()

	// Run formation pass: segment reads prefetched, run writes staged
	// behind the in-memory sorts.
	buf, err := a.Arena().Alloc(m)
	if err != nil {
		return nil, err
	}
	var runs []*pdm.Stripe
	err = stream.Pass(a, n/m, func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr {
		addrs, _ := in.AppendAddrs(dst, t*m, m) // in range: m divides n
		return addrs
	}, buf, func(_ int, keys []int64, w *stream.Writer) error {
		a.Pool().SortKeys(keys)
		st, err := a.NewStripeSkew(m, len(runs))
		if err != nil {
			return err
		}
		runs = append(runs, st)
		return w.WriteStripe(st, 0, keys)
	})
	a.Arena().Free(buf)
	if err != nil {
		freeStripes(runs)
		return nil, err
	}

	// Merge rounds.  The k-way lane merge below stays a serial loser-tree
	// emission on purpose: it is demand-driven (one key per comparison,
	// refills interleaved mid-stream), so there is no resident memory load
	// to cut by splitters — the measured gap against the oblivious
	// algorithms' partitioned merges is part of what the baseline shows.
	for len(runs) > 1 {
		var next []*pdm.Stripe
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := min(lo+fanIn, len(runs))
			merged, err := mergeRuns(a, runs[lo:hi], len(next))
			if err != nil {
				freeStripes(runs[lo:])
				freeStripes(next)
				return nil, err
			}
			freeStripes(runs[lo:hi])
			next = append(next, merged)
		}
		runs = next
	}
	return core.Finish(a, runs[0], n, start, false), nil
}

// lane is one input of a k-way merge: a source stripe with a two-block
// double buffer.
type lane struct {
	s        *pdm.Stripe
	nextBlk  int // next block to fetch
	buf      []int64
	pos, end int // consumable window within buf
}

func mergeRuns(a *pdm.Array, srcs []*pdm.Stripe, skew int) (*pdm.Stripe, error) {
	b := a.B()
	total := 0
	for _, s := range srcs {
		total += s.Len()
	}
	out, err := a.NewStripeSkew(total, skew)
	if err != nil {
		return nil, err
	}
	k := len(srcs)
	laneBuf, err := a.Arena().Alloc(2 * b * k)
	if err != nil {
		out.Free()
		return nil, err
	}
	defer a.Arena().Free(laneBuf)
	outBuf, err := a.Arena().Alloc(a.StripeWidth())
	if err != nil {
		out.Free()
		return nil, err
	}
	defer a.Arena().Free(outBuf)

	lanes := make([]lane, k)
	for i, s := range srcs {
		lanes[i] = lane{s: s, buf: laneBuf[i*2*b : (i+1)*2*b]}
	}

	// Refills are overlapped with merging: each batched top-up request is
	// issued at exactly the point the synchronous code called refill — so
	// the request sequence, statistics, and steps are unchanged — but the
	// transfer runs behind the loser-tree emission and is only joined
	// ("applied") when a lane actually drains.  The in-flight region
	// [end, newEnd) of a lane buffer is disjoint from the consumable window
	// [pos, end), so merging continues safely while the refill lands.
	type update struct{ lane, end int }
	type refillState struct {
		x    *stream.Async
		ends []update
	}
	var pending *refillState
	// Join any in-flight refill before the lane buffers go back to the
	// arena (registered after the Free defers, so it runs first).
	defer func() {
		if pending != nil {
			pending.x.Wait() //nolint:errcheck // shutdown path
		}
	}()
	issueRefill := func() (*refillState, error) {
		var addrs []pdm.BlockAddr
		var views [][]int64
		var ends []update
		for i := range lanes {
			ln := &lanes[i]
			if ln.nextBlk >= ln.s.Blocks() {
				continue
			}
			// Compact the unconsumed tail to the front.
			if ln.pos > 0 {
				copy(ln.buf, ln.buf[ln.pos:ln.end])
				ln.end -= ln.pos
				ln.pos = 0
			}
			end := ln.end
			for end+b <= len(ln.buf) && ln.nextBlk < ln.s.Blocks() {
				addrs = append(addrs, ln.s.BlockAddr(ln.nextBlk))
				views = append(views, ln.buf[end:end+b])
				ln.nextBlk++
				end += b
			}
			if end != ln.end {
				ends = append(ends, update{i, end})
			}
		}
		if len(addrs) == 0 {
			return nil, nil
		}
		x, err := stream.ReadAsync(a, addrs, views)
		if err != nil {
			return nil, err
		}
		return &refillState{x: x, ends: ends}, nil
	}
	apply := func(p *refillState) error {
		if p == nil {
			return nil
		}
		if err := p.x.Wait(); err != nil {
			return err
		}
		for _, u := range p.ends {
			lanes[u.lane].end = u.end
		}
		return nil
	}
	pending, err = issueRefill()
	if err != nil {
		out.Free()
		return nil, err
	}

	w, err := stream.NewWriter(a)
	if err != nil {
		out.Free()
		return nil, err
	}
	defer w.Close()
	fail := func(err error) (*pdm.Stripe, error) {
		out.Free()
		return nil, err
	}
	written := 0
	outFill := 0
	for written+outFill < total {
		// Emit until some unexhausted lane's buffer drains or the output
		// buffer fills.
		best := -1
		for i := range lanes {
			ln := &lanes[i]
			if ln.pos == ln.end {
				// More of this run is on disk or possibly in flight: the
				// merge cannot proceed past it until a refill lands.
				if ln.nextBlk < ln.s.Blocks() || pending != nil {
					best = -2
					break
				}
				continue
			}
			if best < 0 || lanes[best].buf[lanes[best].pos] > ln.buf[ln.pos] {
				best = i
			}
		}
		switch {
		case best == -2:
			// Join the in-flight refill; if the starving lane is still dry,
			// this is a genuine refill point of the synchronous schedule.
			if pending != nil {
				if err := apply(pending); err != nil {
					return fail(err)
				}
				pending = nil
				continue
			}
			p, err := issueRefill()
			if err != nil {
				return fail(err)
			}
			if err := apply(p); err != nil {
				return fail(err)
			}
		case best >= 0:
			ln := &lanes[best]
			outBuf[outFill] = ln.buf[ln.pos]
			ln.pos++
			outFill++
			if outFill == len(outBuf) {
				if err := w.WriteStripe(out, written, outBuf); err != nil {
					return fail(err)
				}
				written += outFill
				outFill = 0
				// The synchronous code refilled here; issue the same request
				// and let it fly behind the next stretch of merging.
				if err := apply(pending); err != nil {
					return fail(err)
				}
				pending, err = issueRefill()
				if err != nil {
					return fail(err)
				}
			}
		default:
			return fail(fmt.Errorf("baseline: merge ran dry with %d of %d keys emitted", written+outFill, total))
		}
	}
	if outFill > 0 {
		if err := w.WriteStripe(out, written, outBuf[:outFill]); err != nil {
			return fail(err)
		}
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	return out, nil
}

// MultiwayPredictedPasses returns the textbook pass count for external
// multiway merge sort: 1 + ⌈log_k(N/M)⌉ with k = M/(2B).
func MultiwayPredictedPasses(n, m, b int) float64 {
	k := m / (2 * b)
	if n <= m || k < 2 {
		return 1
	}
	rounds := 0
	runs := memsort.CeilDiv(n, m)
	for runs > 1 {
		runs = memsort.CeilDiv(runs, k)
		rounds++
	}
	return float64(1 + rounds)
}
