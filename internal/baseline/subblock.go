package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
)

// SubblockGeometry picks the subblock-columnsort geometry for memory m:
// s the largest power-of-four with r = 4·s^1.5 ≤ m (power of four so √s is
// a power of two), block size b = √s, and capacity r·s = 4·s^2.5 — the
// paper's M^(5/3)/4^(2/3) up to rounding.  The harness builds the PDM array
// with the returned block size.
func SubblockGeometry(m int) (r, s, b int, err error) {
	for cand := 4; ; cand *= 4 {
		sq := memsort.Isqrt(cand)
		if 4*cand*sq > m {
			break
		}
		r, s, b = 4*cand*sq, cand, sq
	}
	if s == 0 {
		return 0, 0, 0, fmt.Errorf("baseline: no feasible subblock geometry for M = %d", m)
	}
	return r, s, b, nil
}

// SubblockColumnsort sorts in with the Chaudhry–Cormen–Hamon subblock
// columnsort (the paper's Observation 6.1): columnsort steps 1–3, then the
// new subblock step — partition into √s×√s subblocks, spread each subblock
// across the s columns (one entry per column), sort columns — then steps
// 4–8.  It requires r ≥ 4·s^1.5 and sorts r·s ≈ M^(5/3)/4^(2/3) keys.
//
// Scheduling: five passes on this simulator —
//
//	pass 1: steps 1–2 (sort columns, scatter transpose);
//	pass 2: step 3 (sort columns);
//	pass 3: subblock conversion (read 4-grid-row groups of whole
//	        subblocks = M keys, write one contiguous segment per
//	        destination column);
//	pass 4: sort the converted columns;
//	pass 5: steps 4–8 as one rolling pass over the untransposed view
//	        (the ≤ 2√s dirty rows span ≤ 2·s^1.5 = r/2 keys < the window).
//
// The original achieves four passes with B = Θ(M^(2/5)) via layout tricks
// specific to their disk format; the extra pass here is what experiment
// E14 of go run ./cmd/experiments reports (the capacity and the asymptotic
// pass count are preserved).
func SubblockColumnsort(a *pdm.Array, in *pdm.Stripe, r, s int) (*core.Result, error) {
	b := a.B()
	sq := memsort.Isqrt(s)
	switch {
	case sq*sq != s:
		return nil, fmt.Errorf("baseline: subblock columnsort needs square s, got %d", s)
	case r < 4*s*sq:
		return nil, fmt.Errorf("baseline: subblock columnsort needs r >= 4*s^1.5 = %d, got %d", 4*s*sq, r)
	case b != sq:
		return nil, fmt.Errorf("baseline: subblock schedule needs B = sqrt(s) = %d, got %d", sq, b)
	case in.Len() != r*s || r%sq != 0 || r > a.Mem() || r%2 != 0:
		return nil, fmt.Errorf("baseline: bad subblock geometry r=%d s=%d n=%d", r, s, in.Len())
	}
	start := a.Stats()
	seg := r / s

	// Pass 1 (steps 1–2) and pass 2 (step 3) reuse the columnsort passes:
	// sort columns + scatter transpose, then sort the transposed columns.
	sorted, err := sortScatterTranspose(a, in, r, s)
	if err != nil {
		return nil, err
	}
	resorted, err := sortColumnsPass(a, sorted, r, s)
	freeStripes(sorted)
	if err != nil {
		return nil, err
	}

	// Pass 3: subblock conversion.  Subblock q (grid row-major: gr = q/√s,
	// gc = q mod √s) holds rows [gr√s,(gr+1)√s) of columns
	// [gc√s,(gc+1)√s); its s entries become row q of the converted matrix,
	// i.e. entry e lands in converted column e at position q.  Reading
	// whole grid rows (√s·s = s^1.5 keys each, √s-key block-aligned
	// segments) in groups that fill memory makes both sides contiguous:
	// a group of G grid rows supplies G·√s consecutive positions of every
	// converted column.
	groupRows := a.Mem() / (s * sq) // grid rows per memory load
	if groupRows == 0 {
		groupRows = 1
	}
	gridRows := r / sq
	conv := make([]*pdm.Stripe, s)
	for e := range conv {
		st, err := a.NewStripeSkew(r, e)
		if err != nil {
			freeStripes(resorted)
			freeStripes(conv)
			return nil, err
		}
		conv[e] = st
	}
	buf, err := a.Arena().Alloc(groupRows * s * sq)
	if err != nil {
		freeStripes(resorted)
		freeStripes(conv)
		return nil, err
	}
	gather, err := a.Arena().Alloc(groupRows * s * sq)
	if err != nil {
		a.Arena().Free(buf)
		freeStripes(resorted)
		freeStripes(conv)
		return nil, err
	}
	for gr0 := 0; gr0 < gridRows; gr0 += groupRows {
		g := groupRows
		if gr0+g > gridRows {
			g = gridRows - gr0
		}
		// Read rows [gr0·√s, (gr0+g)·√s) of every column: per column one
		// contiguous segment of g·√s keys.
		segKeys := g * sq
		addrs := make([]pdm.BlockAddr, 0, s*segKeys/b)
		views := make([][]int64, 0, s*segKeys/b)
		for j := 0; j < s; j++ {
			for blk := 0; blk < segKeys/b; blk++ {
				addrs = append(addrs, resorted[j].BlockAddr(gr0*sq/b+blk))
				views = append(views, buf[j*segKeys+blk*b:j*segKeys+(blk+1)*b])
			}
		}
		if err := a.ReadV(addrs, views); err != nil {
			a.Arena().Free(buf)
			a.Arena().Free(gather)
			freeStripes(resorted)
			freeStripes(conv)
			return nil, err
		}
		// buf[j*segKeys + i] = column j, row gr0·√s + i.  Convert: entry e
		// of subblock (gr0+gg, gc) = column gc√s + e/√s, row offset
		// gg·√s + e mod √s → converted column e, position q = (gr0+gg)√s+gc.
		// Gather converted column e's g·√s consecutive positions.
		for e := 0; e < s; e++ {
			cLocal := e / sq // column within the subblock
			rowOff := e % sq // row within the subblock
			dst := gather[e*segKeys : (e+1)*segKeys]
			for gg := 0; gg < g; gg++ {
				for gc := 0; gc < sq; gc++ {
					dst[gg*sq+gc] = buf[(gc*sq+cLocal)*segKeys+gg*sq+rowOff]
				}
			}
		}
		waddrs := make([]pdm.BlockAddr, 0, s*segKeys/b)
		wviews := make([][]int64, 0, s*segKeys/b)
		for e := 0; e < s; e++ {
			for blk := 0; blk < segKeys/b; blk++ {
				waddrs = append(waddrs, conv[e].BlockAddr(gr0*sq/b+blk))
				wviews = append(wviews, gather[e*segKeys+blk*b:e*segKeys+(blk+1)*b])
			}
		}
		if err := a.WriteV(waddrs, wviews); err != nil {
			a.Arena().Free(buf)
			a.Arena().Free(gather)
			freeStripes(resorted)
			freeStripes(conv)
			return nil, err
		}
	}
	a.Arena().Free(buf)
	a.Arena().Free(gather)
	freeStripes(resorted)

	// Pass 4: sort the converted columns.
	convSorted, err := sortColumnsPassStripes(a, conv, r, s)
	freeStripes(conv)
	if err != nil {
		return nil, err
	}

	// Pass 5: steps 4–8 as one rolling pass over the untransposed view.
	out, err := a.NewStripe(r * s)
	if err != nil {
		freeStripes(convSorted)
		return nil, err
	}
	segBlocks := seg / b
	read := func(c int, dst []int64) error {
		addrs := make([]pdm.BlockAddr, 0, s*segBlocks)
		views := make([][]int64, 0, s*segBlocks)
		for j := 0; j < s; j++ {
			for blk := 0; blk < segBlocks; blk++ {
				addrs = append(addrs, convSorted[j].BlockAddr(c*segBlocks+blk))
				views = append(views, dst[j*seg+blk*b:j*seg+(blk+1)*b])
			}
		}
		return a.ReadV(addrs, views)
	}
	err = core.RollingPass(a, r, s, read, core.SequentialEmit(out))
	freeStripes(convSorted)
	if err != nil {
		out.Free()
		return nil, fmt.Errorf("baseline: subblock columnsort final pass: %w", err)
	}
	return core.Finish(a, out, r*s, start, false), nil
}

// sortScatterTranspose is columnsort pass 1 (steps 1–2) extracted for reuse.
func sortScatterTranspose(a *pdm.Array, in *pdm.Stripe, r, s int) ([]*pdm.Stripe, error) {
	b := a.B()
	seg := r / s
	tcols := make([]*pdm.Stripe, s)
	for d := range tcols {
		st, err := a.NewStripeSkew(r, d)
		if err != nil {
			freeStripes(tcols)
			return nil, err
		}
		tcols[d] = st
	}
	buf, err := a.Arena().Alloc(r)
	if err != nil {
		freeStripes(tcols)
		return nil, err
	}
	defer a.Arena().Free(buf)
	gather, err := a.Arena().Alloc(r)
	if err != nil {
		freeStripes(tcols)
		return nil, err
	}
	defer a.Arena().Free(gather)
	for j := 0; j < s; j++ {
		if err := in.ReadAt(j*r, buf); err != nil {
			freeStripes(tcols)
			return nil, err
		}
		memsort.Keys(buf)
		addrs := make([]pdm.BlockAddr, 0, r/b)
		views := make([][]int64, 0, r/b)
		for d := 0; d < s; d++ {
			first := ((d-j*r%s)%s + s) % s
			segBuf := gather[d*seg : (d+1)*seg]
			for k := 0; k < seg; k++ {
				segBuf[k] = buf[first+k*s]
			}
			for blk := 0; blk < seg/b; blk++ {
				addrs = append(addrs, tcols[d].BlockAddr(j*seg/b+blk))
				views = append(views, segBuf[blk*b:(blk+1)*b])
			}
		}
		if err := a.WriteV(addrs, views); err != nil {
			freeStripes(tcols)
			return nil, err
		}
	}
	return tcols, nil
}

// sortColumnsPass reads each column stripe, sorts it, and writes it to a
// fresh skewed stripe — one full pass.
func sortColumnsPassStripes(a *pdm.Array, cols []*pdm.Stripe, r, s int) ([]*pdm.Stripe, error) {
	out := make([]*pdm.Stripe, s)
	buf, err := a.Arena().Alloc(r)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	for j := 0; j < s; j++ {
		if err := cols[j].ReadAt(0, buf); err != nil {
			freeStripes(out)
			return nil, err
		}
		memsort.Keys(buf)
		st, err := a.NewStripeSkew(r, j)
		if err != nil {
			freeStripes(out)
			return nil, err
		}
		if err := st.WriteAt(0, buf); err != nil {
			st.Free()
			freeStripes(out)
			return nil, err
		}
		out[j] = st
	}
	return out, nil
}

// sortColumnsPass is sortColumnsPassStripes for columns already on stripes.
func sortColumnsPass(a *pdm.Array, cols []*pdm.Stripe, r, s int) ([]*pdm.Stripe, error) {
	return sortColumnsPassStripes(a, cols, r, s)
}
