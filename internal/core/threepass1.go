package core

import (
	"fmt"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// ThreePass1 sorts in with the paper's Section 3.1 mesh algorithm in exactly
// three passes.  The input is viewed as an (N/√M)×√M mesh in row-major
// order (a fixed relabeling of the stripe, so no physical layout assumption
// is needed):
//
//	pass 1: sort each √M×√M submesh into row-major order, vertically
//	        consecutive submeshes with opposite row directions, writing the
//	        submesh out as √M column blocks on per-column skewed stripes;
//	pass 2: sort every column of the whole mesh, writing each sorted column
//	        as √M-row band segments on per-band skewed stripes;
//	pass 3: rolling cleanup over the row-major band sequence.  By the
//	        Shearsort principle at most (N/M)/2 rows are dirty after pass 2
//	        — a contiguous band of ≤ M/2 keys — so the M-key window always
//	        suffices (Theorem 3.1).
//
// N must be a positive multiple of M with N/M ≤ √M (N = M·√M is the
// paper's headline case; mesh3Rules.Pad).
func ThreePass1(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, err := threePass1Range(a, in, 0, in.Len(), nil, true)
	if err != nil {
		return nil, err
	}
	return Finish(a, out, in.Len(), start, false), nil
}

// threePass1Range runs ThreePass1 over in[off:off+n].  When emit is nil the
// sorted output is written sequentially to a fresh stripe, which is
// returned; otherwise every sorted M-chunk is handed to emit (SevenPassMesh
// uses this to write its superruns unshuffled) and the returned stripe is
// nil.
//
// ckpt marks the top-level three-pass invocation: only then does the range
// report pass boundaries through the array's checkpointer and honor an
// armed resume point (see threePass2Range).
func threePass1Range(a *pdm.Array, in *pdm.Stripe, off, n int, emit emitFunc, ckpt bool) (*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if err := g.accept(AlgMesh3, n, mesh3Rules.Pad); err != nil {
		return nil, err
	}
	l := n / g.m // number of √M×√M submeshes (and of M-key bands)
	sq := g.sqM

	var cols, bands []*pdm.Stripe
	startPass := 0
	if ckpt {
		if cp := a.TakeResume(string(AlgMesh3), n); cp != nil {
			if cp.Pass < 1 || cp.Pass > 2 {
				return nil, fmt.Errorf("%w: ThreePass1 manifest at pass %d", ErrResumeInvalid, cp.Pass)
			}
			// The column stripes stay allocated until the function
			// returns (the uninterrupted run frees them on exit), so
			// every manifest names them alongside the pass-2 bands.
			cols, err = adoptStripes(a, cp.Stripes["cols"])
			if err != nil {
				return nil, err
			}
			if cp.Pass >= 2 {
				bands, err = adoptStripes(a, cp.Stripes["bands"])
				if err != nil {
					return nil, err
				}
			}
			startPass = cp.Pass
		}
	}

	// Pass 1: submesh sort.  Submesh k is the input range [k·M, (k+1)·M);
	// its column c goes to block k of column-stripe c.
	if startPass < 1 {
		a.Arena().SetPhase("threepass1/submesh")
		cols = make([]*pdm.Stripe, sq)
		for c := range cols {
			s, err := a.NewStripeSkew(l*g.b, c)
			if err != nil {
				return nil, err
			}
			cols[c] = s
		}
	}
	defer freeAll(cols)
	if startPass < 1 {
		if err := threePass1Submesh(a, in, cols, off, l); err != nil {
			return nil, err
		}
		if ckpt {
			if err := passDone(a, pdm.Checkpoint{Alg: string(AlgMesh3), Pass: 1, N: n}, func(cp *pdm.Checkpoint) error {
				cp.Stripes = map[string][]pdm.StripeRef{"cols": stripeRefs(cols)}
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}

	// Pass 2: column sort.  Column c is blocks 0..l-1 of column-stripe c.
	// Band stripes are created here and freed on exit.
	if startPass < 2 {
		a.Arena().SetPhase("threepass1/columns")
		bands = make([]*pdm.Stripe, l)
		for j := range bands {
			s, err := a.NewStripeSkew(g.m, j)
			if err != nil {
				return nil, err
			}
			bands[j] = s
		}
	}
	defer freeAll(bands)
	if startPass < 2 {
		err := columnPass(a, bands, func(addrs []pdm.BlockAddr, c0, cnt int) []pdm.BlockAddr {
			for _, col := range cols[c0 : c0+cnt] {
				for k := 0; k < l; k++ {
					addrs = append(addrs, col.BlockAddr(k))
				}
			}
			return addrs
		})
		if err != nil {
			return nil, err
		}
		if ckpt {
			if err := passDone(a, pdm.Checkpoint{Alg: string(AlgMesh3), Pass: 2, N: n}, func(cp *pdm.Checkpoint) error {
				cp.Stripes = map[string][]pdm.StripeRef{"cols": stripeRefs(cols), "bands": stripeRefs(bands)}
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}

	// Pass 3: rolling cleanup over bands in row-major order.  Band j holds
	// exactly the mesh rows [j·√M, (j+1)·√M) as a set; the rolling pass
	// re-sorts each chunk, so the within-band order is immaterial.
	a.Arena().SetPhase("threepass1/cleanup")
	sk, err := newSink(a, n, emit)
	if err != nil {
		return nil, err
	}
	out, err := sk.close(bandCleanup(a, bands, sk.emit))
	if err != nil {
		return nil, fmt.Errorf("core: ThreePass1 internal error: %w", err)
	}
	a.Arena().SetPhase("")
	return out, nil
}

// bandCleanup is the mesh algorithms' final pass: the rolling cleanup over
// the M-key bands in row-major order.
func bandCleanup(a *pdm.Array, bands []*pdm.Stripe, emit emitFunc) error {
	m := a.Mem()
	return streamedCleanup(a, m, len(bands), func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr {
		return stripeAddrs(dst, bands[t], 0, m)
	}, emit)
}

// threePass1Submesh is pass 1 of ThreePass1: sort each √M×√M submesh and
// scatter its columns (snake direction) into the per-column skewed
// stripes.
func threePass1Submesh(a *pdm.Array, in *pdm.Stripe, cols []*pdm.Stripe, off, l int) error {
	g, err := checkGeometry(a)
	if err != nil {
		return err
	}
	sq := g.sqM
	buf, err := a.Arena().Alloc(g.m)
	if err != nil {
		return err
	}
	defer a.Arena().Free(buf)
	gather, err := a.Arena().Alloc(g.m)
	if err != nil {
		return err
	}
	defer a.Arena().Free(gather)
	pool := a.Pool()
	addrs := make([]pdm.BlockAddr, sq)
	return stream.Pass(a, l, segments(in, off, g.m), buf, func(k int, sub []int64, w *stream.Writer) error {
		// gather is dead until the transpose below, so the sort may use it
		// as partitioned-merge scratch.
		pool.SortKeysScratch(sub, gather)
		reversed := k%2 == 1
		// gather[c*√M + r] = column c, row r of the sorted submesh — the
		// snake-direction transpose, split across the workers by column.
		pool.For(g.m, sq, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				src := c
				if reversed {
					src = sq - 1 - c
				}
				for r := 0; r < sq; r++ {
					gather[c*sq+r] = sub[r*sq+src]
				}
			}
		})
		for c := 0; c < sq; c++ {
			addrs[c] = cols[c].BlockAddr(k)
		}
		return w.WriteFlat(addrs, gather)
	})
}

// columnPass sorts the √M columns of a mesh with len(bands) M-key bands
// and writes each sorted column's band segments into the per-band skewed
// stripes: column c is l·√M ≤ M keys, and its sorted segment j (√M keys =
// the column's share of band j) goes to block c of band-stripe j.  It is
// ThreePass1's pass 2 and ExpTwoPassMesh's pass 1, which differ only in
// where the columns are read from: colAddrs(c0, cnt) lists the blocks of
// columns [c0, c0+cnt) in order.  Columns are processed G = min(√M,
// M/colLen) at a time so every I/O request spans ~√M blocks even when the
// columns are short (l < D), keeping the pass fully parallel at any input
// size.
func columnPass(a *pdm.Array, bands []*pdm.Stripe, colAddrs func(dst []pdm.BlockAddr, c0, cnt int) []pdm.BlockAddr) error {
	g, err := checkGeometry(a)
	if err != nil {
		return err
	}
	sq, l := g.sqM, len(bands)
	colLen := l * sq
	batch := min(g.m/colLen, sq) // = √M/l ≥ 1
	colBuf, err := a.Arena().Alloc(batch * colLen)
	if err != nil {
		return err
	}
	defer a.Arena().Free(colBuf)
	// The column gathers are pure address arithmetic, so the next batch of
	// columns streams in while this one is sorted and its bands staged
	// behind the writer.
	var waddrs []pdm.BlockAddr
	var wviews [][]int64
	return stream.Pass(a, memsort.CeilDiv(sq, batch), func(bi int, dst []pdm.BlockAddr) []pdm.BlockAddr {
		c0 := bi * batch
		return colAddrs(dst, c0, min(batch, sq-c0))
	}, colBuf, func(bi int, cols []int64, w *stream.Writer) error {
		c0, cnt := bi*batch, len(cols)/colLen
		sortColumns(a.Pool(), cols, colLen, cnt)
		waddrs, wviews = waddrs[:0], wviews[:0]
		for ci := 0; ci < cnt; ci++ {
			col := cols[ci*colLen : (ci+1)*colLen]
			for j := 0; j < l; j++ {
				waddrs = append(waddrs, bands[j].BlockAddr(c0+ci))
				wviews = append(wviews, col[j*sq:(j+1)*sq])
			}
		}
		return w.Write(waddrs, wviews)
	})
}

// mesh3Rules: ThreePass2's, priced at its count off even meshes (the tie
// keeps lmm3 ahead); below l = D bands the column pass spreads over fewer
// disks, adding (D − l)·M.
var mesh3Rules = Rules{
	Pad:      padRule(AlgMesh3, false, false),
	Capacity: lmm3Rules.Capacity,
	Passes: func(mem, d, n, padded int, u int64) (float64, float64, bool) {
		if meshEven(memsort.Isqrt(mem), padded/mem, d) {
			return 3, 3, true
		}
		read, write, _ := lmm3Rules.Passes(mem, d, n, padded, u)
		return read, write, false
	},
	Envelope: func(mem, d, padded int, _ int64) int { return 5*padded + max(d-padded/mem, 0)*mem },
}

// meshEven reports whether ThreePass1's column pass maps evenly onto the
// disks for an l·M-key mesh, 1 ≤ l ≤ √M: the pass reads G = √M/l columns of
// l blocks per batch from per-column skewed stripes, and the batch covers
// every disk the same number of times iff l or G is a multiple of D.
func meshEven(sq, l, d int) bool {
	return d < sq && (l%d == 0 || sq/l%d == 0)
}
