package core

import (
	"fmt"

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
// paper's headline case).
func ThreePass1(a *pdm.Array, in *pdm.Stripe) (*Result, error) {
	start := a.Stats()
	out, err := threePass1Range(a, in, 0, in.Len(), nil, true)
	if err != nil {
		return nil, err
	}
	return finish(a, out, in.Len(), start, false), nil
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
	l := n / g.m // number of √M×√M submeshes (and of M-key bands)
	if n <= 0 || n%g.m != 0 || l > g.sqM {
		return nil, fmt.Errorf("core: ThreePass1 needs N a multiple of M with N/M <= sqrt(M); N = %d, M = %d", n, g.m)
	}
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
		if err := threePass1Submesh(a, in, cols, off, n, l); err != nil {
			return nil, err
		}
		if ckpt {
			if err := a.PassDone(pdm.Checkpoint{Alg: string(AlgMesh3), Pass: 1, N: n,
				Stripes: map[string][]pdm.StripeRef{"cols": stripeRefs(cols)}}); err != nil {
				return nil, err
			}
		}
	}

	// Pass 2: column sort (threePass1Columns).  Band stripes are created
	// here and freed on exit.
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
		if err := threePass1Columns(a, cols, bands, l); err != nil {
			return nil, err
		}
		if ckpt {
			if err := a.PassDone(pdm.Checkpoint{Alg: string(AlgMesh3), Pass: 2, N: n,
				Stripes: map[string][]pdm.StripeRef{
					"cols":  stripeRefs(cols),
					"bands": stripeRefs(bands),
				}}); err != nil {
				return nil, err
			}
		}
	}

	// Pass 3: rolling cleanup over bands in row-major order.  Band j holds
	// exactly the mesh rows [j·√M, (j+1)·√M) as a set; the rolling pass
	// re-sorts each chunk, so the within-band order is immaterial.
	a.Arena().SetPhase("threepass1/cleanup")
	var out *pdm.Stripe
	var w *stream.Writer
	if emit == nil {
		out, err = a.NewStripe(n)
		if err != nil {
			return nil, err
		}
		w, err = stream.NewWriter(a)
		if err != nil {
			out.Free()
			return nil, err
		}
		emit = streamEmit(w, out)
	}
	rd, err := stream.NewReader(a, l, func(t int) []pdm.BlockAddr {
		return stripeAddrs(bands[t], 0, g.m)
	})
	if err != nil {
		if w != nil {
			w.Close() //nolint:errcheck // the alloc error takes precedence
		}
		if out != nil {
			out.Free()
		}
		return nil, err
	}
	readBand := func(t int, dst []int64) error {
		return rd.FillFlat(dst)
	}
	err = rollingPass(a, g.m, l, readBand, emit)
	rd.Close()
	if w != nil {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if out != nil {
			out.Free()
		}
		return nil, fmt.Errorf("core: ThreePass1 internal error: %w", err)
	}
	a.Arena().SetPhase("")
	return out, nil
}

// threePass1Submesh is pass 1 of ThreePass1: sort each √M×√M submesh and
// scatter its columns (snake direction) into the per-column skewed
// stripes.
func threePass1Submesh(a *pdm.Array, in *pdm.Stripe, cols []*pdm.Stripe, off, n, l int) error {
	g, err := checkGeometry(a)
	if err != nil {
		return err
	}
	sq := g.sqM
	buf, err := a.Arena().Alloc(g.m)
	if err != nil {
		return err
	}
	gather, err := a.Arena().Alloc(g.m)
	if err != nil {
		a.Arena().Free(buf)
		return err
	}
	pass1 := func() error {
		rd, err := stream.NewStripeReader(in, off, n, g.m)
		if err != nil {
			return err
		}
		defer rd.Close()
		w, err := stream.NewWriter(a)
		if err != nil {
			return err
		}
		pool := a.Pool()
		for k := 0; k < l; k++ {
			if err := rd.FillFlat(buf); err != nil {
				w.Close() //nolint:errcheck // the read error takes precedence
				return err
			}
			// gather is dead until the transpose below, so the sort may use
			// it as partitioned-merge scratch.
			pool.SortKeysScratch(buf, gather)
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
						gather[c*sq+r] = buf[r*sq+src]
					}
				}
			})
			addrs := make([]pdm.BlockAddr, sq)
			for c := 0; c < sq; c++ {
				addrs[c] = cols[c].BlockAddr(k)
			}
			if err := w.WriteFlat(addrs, gather); err != nil {
				w.Close() //nolint:errcheck // the write error takes precedence
				return err
			}
		}
		return w.Close()
	}
	err = pass1()
	a.Arena().Free(buf)
	a.Arena().Free(gather)
	return err
}

// threePass1Columns is pass 2 of ThreePass1: sort every mesh column,
// writing each sorted column's band segments into the per-band skewed
// stripes.  Column c is l·√M ≤ M keys; its sorted segment j (√M keys =
// the column's share of band j) goes to block c of band-stripe j.
// Columns are processed G = min(√M, M/colLen) at a time so every I/O
// request spans ~√M blocks even when the columns are short (l < D),
// keeping the pass fully parallel at any input size.
func threePass1Columns(a *pdm.Array, cols, bands []*pdm.Stripe, l int) error {
	g, err := checkGeometry(a)
	if err != nil {
		return err
	}
	sq := g.sqM
	colLen := l * sq
	batch := g.m / colLen // = √M/l ≥ 1
	if batch > sq {
		batch = sq
	}
	colBuf, err := a.Arena().Alloc(batch * colLen)
	if err != nil {
		return err
	}
	pass2 := func() error {
		// The column gathers are pure address arithmetic over the immutable
		// column stripes: pre-plan them so the next batch of columns streams
		// in while this one is sorted and its bands staged behind the writer.
		chunks := (sq + batch - 1) / batch
		rd, err := stream.NewReader(a, chunks, func(bi int) []pdm.BlockAddr {
			c0 := bi * batch
			cnt := batch
			if c0+cnt > sq {
				cnt = sq - c0
			}
			raddrs := make([]pdm.BlockAddr, 0, cnt*l)
			for ci := 0; ci < cnt; ci++ {
				for k := 0; k < l; k++ {
					raddrs = append(raddrs, cols[c0+ci].BlockAddr(k))
				}
			}
			return raddrs
		})
		if err != nil {
			return err
		}
		defer rd.Close()
		w, err := stream.NewWriter(a)
		if err != nil {
			return err
		}
		for c0 := 0; c0 < sq; c0 += batch {
			cnt := batch
			if c0+cnt > sq {
				cnt = sq - c0
			}
			if err := rd.FillFlat(colBuf[:cnt*colLen]); err != nil {
				w.Close() //nolint:errcheck // the read error takes precedence
				return err
			}
			sortColumns(a.Pool(), colBuf, colLen, cnt)
			waddrs := make([]pdm.BlockAddr, 0, cnt*l)
			wviews := make([][]int64, 0, cnt*l)
			for ci := 0; ci < cnt; ci++ {
				col := colBuf[ci*colLen : (ci+1)*colLen]
				for j := 0; j < l; j++ {
					waddrs = append(waddrs, bands[j].BlockAddr(c0+ci))
					wviews = append(wviews, col[j*sq:(j+1)*sq])
				}
			}
			if err := w.Write(waddrs, wviews); err != nil {
				w.Close() //nolint:errcheck // the write error takes precedence
				return err
			}
		}
		return w.Close()
	}
	err = pass2()
	a.Arena().Free(colBuf)
	return err
}
