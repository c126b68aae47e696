package baseline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
)

// ColumnsortGeometry picks the largest power-of-two column count s (and
// column length r = M) satisfying Leighton's r ≥ 2(s−1)² on a machine with
// memory m and block size b, with the divisibility the PDM schedule needs
// (b | r/s).  Capacity r·s approaches the paper's M·√(M/2) up to
// power-of-two rounding.
func ColumnsortGeometry(m, b int) (r, s int, err error) {
	if m%b != 0 {
		return 0, 0, fmt.Errorf("baseline: B = %d does not divide M = %d", b, m)
	}
	r = m
	for cand := 2; ; cand *= 2 {
		if 2*(cand-1)*(cand-1) > r || r%(cand*b) != 0 || cand > r/b {
			break
		}
		s = cand
	}
	if s == 0 {
		return 0, 0, fmt.Errorf("baseline: no feasible columnsort geometry for M = %d, B = %d", m, b)
	}
	return r, s, nil
}

// Columnsort sorts in with Leighton's columnsort adapted to the PDM the way
// Chaudhry and Cormen do, in exactly three passes:
//
//	pass 1: read each column, sort it (step 1), scatter-write the transpose
//	        (step 2) — source column j lands as s contiguous segments of
//	        r/s keys, one per destination column;
//	pass 2: read each column of the transposed matrix, sort it (step 3),
//	        write it back in place;
//	pass 3: steps 4–8 in one rolling pass: each chunk gathers one column of
//	        the *untransposed* view (s segments of r/s keys), and the
//	        rolling window performs the step-5 sort plus the steps-6–8
//	        half-column merge (every key is within r/2 < r of home).
//
// in must hold exactly r·s keys laid out column-major (any fixed
// relabeling of the stripe).
func Columnsort(a *pdm.Array, in *pdm.Stripe, r, s int) (*core.Result, error) {
	if err := checkColGeometry(a, in, r, s, true); err != nil {
		return nil, err
	}
	start := a.Stats()
	out, err := columnsortTail(a, in, r, s, true)
	if err != nil {
		return nil, err
	}
	return core.Finish(a, out, in.Len(), start, false), nil
}

// ModifiedColumnsort is the Observation 5.1 variant: steps 1–2 are skipped,
// so only passes 2–3 run (two passes).  For a random input permutation the
// rolling window suffices with high probability when r is comfortably above
// the Lemma 4.2 displacement scale; on overflow the untouched input is
// re-sorted with the full three-pass Columnsort (2+3 passes total).
func ModifiedColumnsort(a *pdm.Array, in *pdm.Stripe, r, s int) (*core.Result, error) {
	if err := checkColGeometry(a, in, r, s, false); err != nil {
		return nil, err
	}
	start := a.Stats()
	out, err := columnsortTail(a, in, r, s, false)
	if err == nil {
		return core.Finish(a, out, in.Len(), start, false), nil
	}
	if !errors.Is(err, core.ErrCleanupOverflow) {
		return nil, err
	}
	if r < 2*(s-1)*(s-1) {
		return nil, fmt.Errorf("baseline: fallback infeasible: r = %d < 2(s-1)^2; %w", r, err)
	}
	out, err = columnsortTail(a, in, r, s, true)
	if err != nil {
		return nil, err
	}
	return core.Finish(a, out, in.Len(), start, true), nil
}

func checkColGeometry(a *pdm.Array, in *pdm.Stripe, r, s int, requireTall bool) error {
	b := a.B()
	switch {
	case r <= 0 || s <= 0 || in.Len() != r*s:
		return fmt.Errorf("baseline: %d keys cannot form an %dx%d matrix", in.Len(), r, s)
	case r > a.Mem():
		return fmt.Errorf("baseline: column length %d exceeds memory %d", r, a.Mem())
	case r%b != 0 || (r/s)%b != 0:
		return fmt.Errorf("baseline: geometry r=%d s=%d not block aligned at B=%d", r, s, b)
	case r%2 != 0:
		return fmt.Errorf("baseline: columnsort needs even r, got %d", r)
	case requireTall && r < 2*(s-1)*(s-1):
		return fmt.Errorf("baseline: columnsort needs r >= 2(s-1)^2 = %d, got %d", 2*(s-1)*(s-1), r)
	}
	return nil
}

// columnsortTail runs passes 1–3 (or 2–3 when full is false) and returns
// the sorted output stripe, or core.ErrCleanupOverflow if the final rolling
// pass detects dirt beyond its window (only possible when full is false).
func columnsortTail(a *pdm.Array, in *pdm.Stripe, r, s int, full bool) (*pdm.Stripe, error) {
	// Pass 1 (steps 1–2), only in the full algorithm.  With steps 1–2
	// skipped, the "transposed matrix" is the raw input: its columns are
	// contiguous ranges of the input stripe.
	var cols []*pdm.Stripe
	if full {
		var err error
		if cols, err = sortScatterTranspose(a, in, r, s); err != nil {
			return nil, err
		}
	}

	// Pass 2 (step 3): sort each column of the (possibly skipped-)
	// transposed matrix.
	sorted, err := sortColumnsPass(a, cols, in, r, s)
	freeStripes(cols)
	if err != nil {
		return nil, err
	}

	// Pass 3 (steps 4–8): rolling window over the columns of the
	// untransposed view.
	out, err := a.NewStripe(r * s)
	if err != nil {
		freeStripes(sorted)
		return nil, err
	}
	err = core.RollingPass(a, r, s, rollingRead(a, sorted, r, s), core.SequentialEmit(out))
	freeStripes(sorted)
	if err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}

// sortScatterTranspose is columnsort pass 1 (steps 1–2): sort each source
// column and scatter-write the transpose.  Transpose sends column-major
// index p to (p mod s)·r + p÷s, so source column j writes destination
// column d's positions [j·seg, (j+1)·seg) — the d-th residue class of j's
// keys.
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
		// Element i of sorted column j has column-major index p = j·r+i,
		// bound for destination column d = p mod s; the i ≡ d − j·r
		// (mod s) form one contiguous segment there.
		addrs := make([]pdm.BlockAddr, 0, r/b)
		views := make([][]int64, 0, r/b)
		for d := 0; d < s; d++ {
			first := ((d-j*r%s)%s + s) % s // smallest i with (j·r+i) ≡ d (mod s)
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

// sortColumnsPass reads each of the s columns of r keys, sorts it, and
// writes it to a fresh skewed stripe — one full pass.  Column j is the
// stripe cols[j], or with cols nil keys [j·r, (j+1)·r) of in.
func sortColumnsPass(a *pdm.Array, cols []*pdm.Stripe, in *pdm.Stripe, r, s int) ([]*pdm.Stripe, error) {
	out := make([]*pdm.Stripe, s)
	buf, err := a.Arena().Alloc(r)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	for j := 0; j < s; j++ {
		if cols != nil {
			err = cols[j].ReadAt(0, buf)
		} else {
			err = in.ReadAt(j*r, buf)
		}
		if err != nil {
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

// rollingRead is the read plan of the final rolling pass over the
// untransposed view of the sorted columns cols.  Untransposed column c
// gathers, from each sorted column j, the segment of positions whose
// untranspose image lies in column c: destination q = i·s + j for source
// (i, j), so column c receives source positions i ∈ [c·seg, (c+1)·seg) of
// every j.
func rollingRead(a *pdm.Array, cols []*pdm.Stripe, r, s int) func(c int, dst []int64) error {
	b, seg := a.B(), r/s
	segBlocks := seg / b
	return func(c int, dst []int64) error {
		addrs := make([]pdm.BlockAddr, 0, s*segBlocks)
		views := make([][]int64, 0, s*segBlocks)
		for j := 0; j < s; j++ {
			for blk := 0; blk < segBlocks; blk++ {
				addrs = append(addrs, cols[j].BlockAddr(c*segBlocks+blk))
				views = append(views, dst[j*seg+blk*b:j*seg+(blk+1)*b])
			}
		}
		return a.ReadV(addrs, views)
	}
}

func freeStripes(ss []*pdm.Stripe) {
	for _, s := range ss {
		if s != nil {
			s.Free()
		}
	}
}
