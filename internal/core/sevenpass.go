package core

import (
	"fmt"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// SevenPass sorts in with the paper's Section 6.1 algorithm in exactly
// seven passes.  For N = l²·M with l ≤ √M (the paper's headline case is
// l = √M, N = M²):
//
//	passes 1–3: ThreePass2 forms l sorted superruns of l·M keys each, the
//	            final write unshuffled into √M subsequences per superrun
//	            (steps 1–2 combined);
//	pass 4:     unshuffle each subsequence into l parts (the inner
//	            (l,m)-merge's unshuffle);
//	pass 5:     in-memory merges of the inner part groups (step 3's
//	            "mergings ... in one pass through the data" middle pass);
//	pass 6:     shuffle + cleanup per subsequence group, producing the Q_j;
//	pass 7:     shuffle Q_1..Q_√M + cleanup (steps 4–5, dirtiness ≤ M).
//
// l must divide √M so every pass stays block-aligned (padRule).
func SevenPass(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, _, err := superrunMerge(a, in, AlgSeven, func(off, n int, emit emitFunc) (bool, error) {
		_, err := threePass2Range(a, in, off, n, emit, false)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	return Finish(a, out, in.Len(), start, false), nil
}

// sevenRules: N = l²·M with l dividing √M, in 4 passes plus the outer
// merge's.
var sevenRules = Rules{
	Pad:      padRule(AlgSeven, true, true),
	Capacity: anyKeys(func(mem int, _ float64) int { return mem * mem }),
	Passes:   superrunPasses(4),
	Envelope: superrunEnvelope,
}

// superrunPasses is the Passes of a superrun algorithm with base passes
// before the outer merge: base + 3 when the l-block subsequence stripes
// span the disks (D | l), base + 3·D/l when three outer-merge passes
// shrink to l-disk parallelism (l | D), base + 3 as a floor otherwise.
func superrunPasses(base int) func(mem, d, n, padded int, universe int64) (float64, float64, bool) {
	return func(mem, d, _, padded int, _ int64) (float64, float64, bool) {
		p, exact := float64(base+3), true
		switch l := memsort.Isqrt(padded / mem); {
		case l < d && d%l == 0:
			p = float64(3*(d/l) + base)
		case l%d != 0:
			exact = false
		}
		return p, p, exact
	}
}

// superrunEnvelope is the superrun family's measured 7× padded plus one
// padded length of headroom; below l = D superruns the outer merge spreads
// over fewer disks and peaks at (3·D/l + 1)× padded.
func superrunEnvelope(mem, d, padded int, _ int64) int {
	l := memsort.Isqrt(padded / mem)
	return max(8, 3*memsort.CeilDiv(d, max(l, 1))+2) * padded
}

// superrunMerge is the skeleton SevenPass, SevenPassMesh and
// ExpectedSixPass share: each of the l superruns in[i·l·M, (i+1)·l·M) is
// sorted by sortRange, whose final pass emits it unshuffled into row i of
// the subsequence grid, and the outer merge then sorts the grid into the
// returned stripe.  Each finished superrun is a reporting-only pass
// boundary tagged alg (the grid is rebuilt from input on recovery, so
// there is no resume manifest).  It reports whether any superrun's sort
// fell back.
func superrunMerge(a *pdm.Array, in *pdm.Stripe, alg Alg, sortRange func(off, n int, emit emitFunc) (bool, error)) (*pdm.Stripe, bool, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, false, err
	}
	n := in.Len()
	if err := g.accept(alg, n, padRule(alg, true, true)); err != nil {
		return nil, false, err
	}
	l := memsort.Isqrt(n / g.m) // N = l²·M with l dividing √M
	subseqs, err := makeSubseqStripes(a, l)
	if err != nil {
		return nil, false, err
	}
	defer freeAll2(subseqs)
	staging, err := a.Arena().Alloc(g.dxb)
	if err != nil {
		return nil, false, err
	}
	fellBack := false
	for i := 0; i < l; i++ {
		fb, err := sortRange(i*l*g.m, l*g.m, unshuffleEmit(a, subseqs[i], staging))
		if err == nil {
			err = a.PassDone(pdm.Checkpoint{Alg: string(alg), Pass: i + 1, N: n})
		}
		if err != nil {
			a.Arena().Free(staging)
			return nil, false, err
		}
		fellBack = fellBack || fb
	}
	a.Arena().Free(staging)
	out, err := outerMerge(a, subseqs, l, n)
	return out, fellBack, err
}

// makeSubseqStripes allocates the l×√M grid of subsequence stripes: entry
// (i, j) holds subsequence j of superrun i (its elements ≡ j mod √M),
// length l·√M, skewed by i+j so both the unshuffled writes and the grouped
// reads spread across the disks.
func makeSubseqStripes(a *pdm.Array, l int) ([][]*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	out := make([][]*pdm.Stripe, l)
	for i := range out {
		out[i] = make([]*pdm.Stripe, g.sqM)
		for j := range out[i] {
			s, err := a.NewStripeSkew(l*g.b, i+j)
			if err != nil {
				freeAll2(out)
				return nil, err
			}
			out[i][j] = s
		}
	}
	return out, nil
}

// unshuffleEmit returns an emitFunc that scatters each sorted M-chunk into
// the √M subsequence stripes: chunk element u belongs to subsequence
// u mod √M, and the t-th chunk supplies block t of every subsequence.
// Writes go out D blocks at a time through the provided D·B staging buffer,
// so each emit costs the optimal √M/D parallel write steps.  The emitter
// stays synchronous on purpose: it runs nested inside ThreePass2's cleanup,
// whose rolling window plus the streaming reader already fill the arena —
// a write-behind writer here would need a second staging budget beyond the
// memory model's envelope.
func unshuffleEmit(a *pdm.Array, subseqs []*pdm.Stripe, staging []int64) emitFunc {
	sq := len(subseqs)
	b := a.B()
	d := a.D()
	pool := a.Pool()
	addrs := make([]pdm.BlockAddr, d)
	views := make([][]int64, d)
	return func(t int, chunk []int64) error {
		for j0 := 0; j0 < sq; j0 += d {
			cnt := d
			if j0+cnt > sq {
				cnt = sq - j0
			}
			// The strided gather into the staging blocks splits across the
			// workers; the addressing stays serial and identical.
			pool.For(cnt*b, cnt, func(_, lo, hi int) {
				for dj := lo; dj < hi; dj++ {
					j := j0 + dj
					seg := staging[dj*b : (dj+1)*b]
					for k := 0; k < b; k++ {
						seg[k] = chunk[k*sq+j]
					}
				}
			})
			for dj := 0; dj < cnt; dj++ {
				addrs[dj] = subseqs[j0+dj].BlockAddr(t)
				views[dj] = staging[dj*b : (dj+1)*b]
			}
			if err := a.WriteV(addrs[:cnt], views[:cnt]); err != nil {
				return err
			}
		}
		return nil
	}
}

// outerMerge performs passes 4-7 of SevenPass (equivalently passes 3-6 of
// ExpectedSixPass): the (l, √M)-merge of l sorted superruns already
// unshuffled into the subseqs grid, each subsequence of length l·√M keys.
func outerMerge(a *pdm.Array, subseqs [][]*pdm.Stripe, l, n int) (*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	sq := g.sqM
	subLen := l * g.b // keys per subsequence
	pool := a.Pool()

	// Pass 4: unshuffle each subsequence (i,j) into l parts of √M keys;
	// part p occupies block p of the rewritten stripe.  Subsequences are
	// consumed whole in (i, j) order, so the next one streams in during the
	// in-memory scatter.
	a.Arena().SetPhase("outer/unshuffle")
	parts := make([][]*pdm.Stripe, len(subseqs))
	for i := range parts {
		parts[i] = make([]*pdm.Stripe, sq)
		for j := range parts[i] {
			s, err := a.NewStripeSkew(subLen, i+j)
			if err != nil {
				freeAll2(parts)
				return nil, err
			}
			parts[i][j] = s
		}
	}
	err = func() error {
		buf, err := a.Arena().Alloc(subLen)
		if err != nil {
			return err
		}
		defer a.Arena().Free(buf)
		scatter, err := a.Arena().Alloc(subLen)
		if err != nil {
			return err
		}
		defer a.Arena().Free(scatter)
		return stream.Pass(a, len(subseqs)*sq, func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr {
			return stripeAddrs(dst, subseqs[t/sq][t%sq], 0, subLen)
		}, buf, func(t int, sub []int64, w *stream.Writer) error {
			// Part p at scatter[p·B:(p+1)·B] — a transpose of the
			// subsequence viewed as B rows of l keys.
			pool.Transpose(scatter, sub, g.b, l)
			return w.WriteStripe(parts[t/sq][t%sq], 0, scatter)
		})
	}()
	if err != nil {
		freeAll2(parts)
		return nil, err
	}

	// Pass 5: inner group merges.  For each (j, p): merge part p of
	// subsequence j across the l superruns — l lanes of √M keys = l·√M ≤ M
	// records per merge — into L2(j,p).  One group gather per (j, p): block
	// p of part j from every superrun.
	a.Arena().SetPhase("outer/groupmerge")
	l2 := make([][]*pdm.Stripe, sq)
	for j := range l2 {
		l2[j] = make([]*pdm.Stripe, l)
	}
	err = func() error {
		inBuf, err := a.Arena().Alloc(subLen)
		if err != nil {
			return err
		}
		defer a.Arena().Free(inBuf)
		outBuf, err := a.Arena().Alloc(subLen)
		if err != nil {
			return err
		}
		defer a.Arena().Free(outBuf)
		lanes := make([][]int64, l)
		return stream.Pass(a, sq*l, func(t int, addrs []pdm.BlockAddr) []pdm.BlockAddr {
			j, p := t/l, t%l
			for i := 0; i < l; i++ {
				addrs = append(addrs, parts[i][j].BlockAddr(p))
			}
			return addrs
		}, inBuf, func(t int, group []int64, w *stream.Writer) error {
			j, p := t/l, t%l
			for i := range lanes {
				lanes[i] = group[i*g.b : (i+1)*g.b]
			}
			pool.MultiMerge(outBuf, lanes)
			s, err := a.NewStripeSkew(subLen, j+p)
			if err != nil {
				return err
			}
			l2[j][p] = s
			return w.WriteStripe(s, 0, outBuf)
		})
	}()
	freeAll2(parts)
	if err != nil {
		freeAll2(l2)
		return nil, err
	}

	// Pass 6: per-j shuffle + cleanup of the l merged part sequences into
	// Q_j.  Inner dirtiness ≤ l·l ≤ l·√M = the chunk size.
	a.Arena().SetPhase("outer/innerclean")
	qs, err := innerCleanups(a, l2, l*subLen, l*g.b)
	freeAll2(l2)
	if err != nil {
		return nil, err
	}

	// Pass 7: shuffle Q_1..Q_√M + cleanup; outer dirtiness ≤ l·√M ≤ M.
	a.Arena().SetPhase("outer/finalclean")
	sk, err := newSink(a, n, nil)
	if err != nil {
		freeAll(qs)
		return nil, err
	}
	err = shuffleCleanup(a, viewsOf(qs), g.m, sk.emit)
	freeAll(qs)
	out, err := sk.close(err)
	if err != nil {
		return nil, fmt.Errorf("core: SevenPass final cleanup: %w", err)
	}
	a.Arena().SetPhase("")
	return out, nil
}

// innerCleanups is the outer merge's pass 6: sequence group j of l2 is
// shuffled and cleaned in chunk-key windows into Q_j, a qLen-key stripe
// skewed by j, all through one write-behind writer.  On error no Q_j stays
// allocated.
func innerCleanups(a *pdm.Array, l2 [][]*pdm.Stripe, qLen, chunk int) ([]*pdm.Stripe, error) {
	w, err := stream.NewWriter(a)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	qs := make([]*pdm.Stripe, len(l2))
	for j, seqs := range l2 {
		q, err := a.NewStripeSkew(qLen, j)
		if err != nil {
			freeAll(qs)
			return nil, err
		}
		qs[j] = q
		if err := shuffleCleanup(a, viewsOf(seqs), chunk, streamEmit(w, q)); err != nil {
			freeAll(qs)
			return nil, fmt.Errorf("core: SevenPass inner cleanup: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		freeAll(qs)
		return nil, err
	}
	return qs, nil
}

// freeAll2 frees a grid of stripes.
func freeAll2(grid [][]*pdm.Stripe) {
	for _, row := range grid {
		freeAll(row)
	}
}
