package core

import (
	"errors"
	"fmt"

	"repro/internal/memsort"
	"repro/internal/par"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// ErrCleanupOverflow reports that a probabilistic algorithm's shuffle left
// some key farther from home than the cleanup window, i.e. the "problem
// detected" event of Section 5; callers fall back to a deterministic
// algorithm exactly as the paper prescribes.
var ErrCleanupOverflow = errors.New("core: displacement exceeded the cleanup window")

// Result reports one sorting run: the output stripe, the I/O consumed, and
// the pass counts in the paper's currency (one pass = N/(DB) parallel read
// steps and as many writes).
type Result struct {
	Out *pdm.Stripe
	N   int
	IO  pdm.Stats
	// ReadPasses and WritePasses are the measured pass counts; Passes is
	// their max (the number the paper's theorems bound).
	ReadPasses  float64
	WritePasses float64
	Passes      float64
	// FellBack is set when a probabilistic algorithm detected a cleanup
	// overflow and re-sorted with its deterministic fallback.
	FellBack bool
}

// geometry captures the paper's standing configuration B = √M.
type geometry struct {
	m   int // internal memory, keys
	b   int // block size = √M
	d   int // disks
	sqM int // √M = B
	dxb int // D·B
}

func checkGeometry(a *pdm.Array) (geometry, error) {
	g := geometry{m: a.Mem(), b: a.B(), d: a.D(), dxb: a.StripeWidth()}
	g.sqM = memsort.Isqrt(g.m)
	if g.sqM*g.sqM != g.m {
		return g, fmt.Errorf("core: M = %d is not a perfect square", g.m)
	}
	if g.b != g.sqM {
		return g, fmt.Errorf("core: block size B = %d, the paper's algorithms need B = √M = %d", g.b, g.sqM)
	}
	if g.sqM%g.d != 0 {
		return g, fmt.Errorf("core: D = %d does not divide √M = %d (need M = C·D·B with integer C)", g.d, g.sqM)
	}
	return g, nil
}

// finish assembles a Result from the stats delta since start.
func finish(a *pdm.Array, out *pdm.Stripe, n int, start pdm.Stats, fellBack bool) *Result {
	io := a.Stats().Sub(start)
	return &Result{
		Out:         out,
		N:           n,
		IO:          io,
		ReadPasses:  io.ReadPasses(n, a.StripeWidth()),
		WritePasses: io.WritePasses(n, a.StripeWidth()),
		Passes:      io.Passes(n, a.StripeWidth()),
		FellBack:    fellBack,
	}
}

// seqView addresses a sorted sequence stored as every strideBlk-th block
// of a stripe, starting at startBlk.  Interleaving several sequences on one
// stripe this way lets a pass write small merge outputs with full
// parallelism while a later pass still reads block t of every sequence with
// full parallelism — the layout trick behind mergePartGroups.
type seqView struct {
	s         *pdm.Stripe
	startBlk  int
	strideBlk int
	keys      int
}

func viewOf(s *pdm.Stripe) seqView {
	return seqView{s: s, startBlk: 0, strideBlk: 1, keys: s.Len()}
}

func viewsOf(ss []*pdm.Stripe) []seqView {
	out := make([]seqView, len(ss))
	for i, s := range ss {
		out[i] = viewOf(s)
	}
	return out
}

func (v seqView) blockAddr(i int) pdm.BlockAddr {
	return v.s.BlockAddr(v.startBlk + i*v.strideBlk)
}

// stripeAddrs returns the block addresses of keys [keyOff, keyOff+nKeys) of
// s.  The ranges used by the algorithms are valid by construction, so a
// failure is an internal bug.
func stripeAddrs(s *pdm.Stripe, keyOff, nKeys int) []pdm.BlockAddr {
	addrs, err := s.AddrRange(keyOff, nKeys)
	if err != nil {
		panic(err)
	}
	return addrs
}

// formRuns reads consecutive runLen-key segments of in[off:off+n], sorts
// each in memory, and writes run i to its own stripe with skew i — one
// pass.  The segment reads are prefetched and the run writes staged behind
// the in-memory sort (stream.Reader/stream.Writer), so with pipelining
// configured the pass overlaps I/O with sorting.  runLen must be ≤ M and a
// multiple of B, and n a multiple of runLen.
func formRuns(a *pdm.Array, in *pdm.Stripe, off, n, runLen int) ([]*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if runLen > g.m || runLen%g.b != 0 || n%runLen != 0 {
		return nil, fmt.Errorf("core: bad run geometry: n = %d, runLen = %d, M = %d, B = %d", n, runLen, g.m, g.b)
	}
	buf, err := a.Arena().Alloc(runLen)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	rd, err := stream.NewStripeReader(in, off, n, runLen)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	w, err := stream.NewWriter(a)
	if err != nil {
		return nil, err
	}
	pool := a.Pool()
	numRuns := n / runLen
	// A cleanup chunk reads h = √M/numRuns consecutive blocks from every
	// run, so spacing the run skews by h tiles the disks exactly; unit
	// spacing would overlap the runs' diagonal ranges whenever h < D.
	skewStep := 1
	if numRuns > 0 && g.sqM%numRuns == 0 {
		skewStep = g.sqM / numRuns
	}
	runs := make([]*pdm.Stripe, numRuns)
	for i := range runs {
		if err := rd.FillFlat(buf); err != nil {
			w.Close() //nolint:errcheck // the read error takes precedence
			return nil, err
		}
		pool.SortKeys(buf)
		s, err := a.NewStripeSkew(runLen, i*skewStep)
		if err != nil {
			w.Close() //nolint:errcheck // the alloc error takes precedence
			return nil, err
		}
		if err := w.WriteFlat(stripeAddrs(s, 0, runLen), buf); err != nil {
			w.Close() //nolint:errcheck // the write error takes precedence
			return nil, err
		}
		runs[i] = s
	}
	return runs, w.Close()
}

// formRunsUnshuffled is formRuns combined with the paper's first unshuffle
// (ThreePass2 step 2): each sorted run is written as m parts, part p holding
// the run's elements ≡ p (mod m); part p occupies blocks
// [p·partLen/B, (p+1)·partLen/B) of the run's stripe.  partLen = runLen/m
// must be a multiple of B.  Still exactly one pass.
func formRunsUnshuffled(a *pdm.Array, in *pdm.Stripe, off, n, runLen, m int) ([]*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if runLen > g.m || n%runLen != 0 || m <= 0 || runLen%m != 0 {
		return nil, fmt.Errorf("core: bad unshuffled-run geometry: n = %d, runLen = %d, m = %d", n, runLen, m)
	}
	partLen := runLen / m
	if partLen%g.b != 0 {
		return nil, fmt.Errorf("core: part length %d not a multiple of B = %d", partLen, g.b)
	}
	buf, err := a.Arena().Alloc(runLen)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	parts, err := a.Arena().Alloc(runLen)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(parts)
	rd, err := stream.NewStripeReader(in, off, n, runLen)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	w, err := stream.NewWriter(a)
	if err != nil {
		return nil, err
	}
	pool := a.Pool()
	numRuns := n / runLen
	skewStep := mergeSkewStep(g, numRuns, partLen/g.b)
	runs := make([]*pdm.Stripe, numRuns)
	for i := range runs {
		if err := rd.FillFlat(buf); err != nil {
			w.Close() //nolint:errcheck // the read error takes precedence
			return nil, err
		}
		// parts is dead until the unshuffle below, so the sort may use it
		// as partitioned-merge scratch — no extra arena memory.
		pool.SortKeysScratch(buf, parts)
		// Gather part p at parts[p*partLen : (p+1)*partLen] — a transpose
		// of the sorted run viewed as partLen rows of m keys.
		pool.Transpose(parts, buf, partLen, m)
		s, err := a.NewStripeSkew(runLen, i*skewStep)
		if err != nil {
			w.Close() //nolint:errcheck // the alloc error takes precedence
			return nil, err
		}
		if err := w.WriteFlat(stripeAddrs(s, 0, runLen), parts); err != nil {
			w.Close() //nolint:errcheck // the write error takes precedence
			return nil, err
		}
		runs[i] = s
	}
	return runs, w.Close()
}

// mergeSkewStep returns the skew spacing (in blocks) between the stripes of
// l runs whose parts (partBlocks blocks each) will be read group-wise by
// mergePartGroups: spacing of batch·partBlocks with batch = ⌈D/(l·pb)⌉
// makes the l diagonal read windows tile the disks exactly when everything
// is a power of two, and near-evenly otherwise.
func mergeSkewStep(g geometry, l, partBlocks int) int {
	if l <= 0 || partBlocks <= 0 {
		return 1
	}
	batch := memsort.CeilDiv(g.d, l*partBlocks)
	if batch < 1 {
		batch = 1
	}
	return batch * partBlocks
}

// mergePartGroups performs the (l,m)-merge's middle pass (ThreePass2
// step 3): for each part index j, gather part j of every run (l·partLen ≤ M
// keys), k-way merge them into L_j, and write the results out — one pass.
//
// When a single group spans fewer blocks than there are disks, several
// groups are processed per memory load and their output blocks are
// interleaved round-robin on one shared stripe: the batched write is
// contiguous (full write parallelism) and the returned strided views still
// expose block t of every L_j on distinct disks (full read parallelism for
// the following shuffle pass).
func mergePartGroups(a *pdm.Array, runs []*pdm.Stripe, partLen, m int) ([]seqView, []*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, nil, err
	}
	l := len(runs)
	group := l * partLen
	if group > g.m {
		return nil, nil, fmt.Errorf("core: merge group of %d keys exceeds M = %d", group, g.m)
	}
	partBlocks := partLen / g.b
	batch := mergeSkewStep(g, l, partBlocks) / partBlocks
	for batch > 1 && (batch*group > g.m || batch > m) {
		batch--
	}
	if m%batch != 0 {
		batch = 1
	}
	in, err := a.Arena().Alloc(batch * group)
	if err != nil {
		return nil, nil, err
	}
	defer a.Arena().Free(in)
	out, err := a.Arena().Alloc(batch * group)
	if err != nil {
		return nil, nil, err
	}
	defer a.Arena().Free(out)
	// The gather pattern of every batch is pure address arithmetic over the
	// immutable run stripes, so the whole pass pre-plans for the prefetcher:
	// batch bi+1 streams in while batch bi is being merged and its output
	// staged behind the writer.
	gcnt := batch
	rd, err := stream.NewReader(a, m/batch, func(bi int) []pdm.BlockAddr {
		j0 := bi * batch
		addrs := make([]pdm.BlockAddr, 0, gcnt*l*partBlocks)
		for gj := 0; gj < gcnt; gj++ {
			j := j0 + gj
			for _, r := range runs {
				for bidx := 0; bidx < partBlocks; bidx++ {
					addrs = append(addrs, r.BlockAddr(j*partBlocks+bidx))
				}
			}
		}
		return addrs
	})
	if err != nil {
		return nil, nil, err
	}
	defer rd.Close()
	w, err := stream.NewWriter(a)
	if err != nil {
		return nil, nil, err
	}
	pool := a.Pool()
	merged := make([]seqView, m)
	var backing []*pdm.Stripe
	lanes := make([][]int64, l)
	groupBlocks := group / g.b
	fail := func(err error) ([]seqView, []*pdm.Stripe, error) {
		w.Close() //nolint:errcheck // the first error takes precedence
		return nil, nil, err
	}
	for j0 := 0; j0 < m; j0 += batch {
		bi := j0 / batch
		// Gather: part j of run i lands at in[gj*group + i*partLen : ...] —
		// exactly the flat order of the pre-planned chunk.
		if err := rd.FillFlat(in); err != nil {
			return fail(err)
		}
		// Merge each group in the batch: a single resident group gets the
		// pool's merge (splitter-cut across the workers when it is large
		// enough to pay), several split across the workers group-wise —
		// either way bit-identical to the serial loser tree.
		if gcnt == 1 {
			for i := range runs {
				lanes[i] = in[i*partLen : (i+1)*partLen]
			}
			pool.MultiMerge(out[:group], lanes)
		} else {
			pool.For(gcnt*group, gcnt, func(_, lo, hi int) {
				glanes := make([][]int64, l)
				for gj := lo; gj < hi; gj++ {
					for i := 0; i < l; i++ {
						glanes[i] = in[gj*group+i*partLen : gj*group+(i+1)*partLen]
					}
					pool.MergeSegment(out[gj*group:(gj+1)*group], glanes)
				}
			})
		}
		// One shared stripe per batch, blocks interleaved round-robin:
		// stripe block p holds block p/gcnt of group j0 + p%gcnt.
		bs, err := a.NewStripeSkew(gcnt*group, bi*gcnt)
		if err != nil {
			return fail(err)
		}
		backing = append(backing, bs)
		waddrs := make([]pdm.BlockAddr, gcnt*groupBlocks)
		wbufs := make([][]int64, gcnt*groupBlocks)
		for p := range waddrs {
			gj := p % gcnt
			blk := p / gcnt
			waddrs[p] = bs.BlockAddr(p)
			wbufs[p] = out[gj*group+blk*g.b : gj*group+(blk+1)*g.b]
		}
		if err := w.Write(waddrs, wbufs); err != nil {
			return fail(err)
		}
		for gj := 0; gj < gcnt; gj++ {
			merged[j0+gj] = seqView{s: bs, startBlk: gj, strideBlk: gcnt, keys: group}
		}
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	return merged, backing, nil
}

// emitFunc receives the t-th sorted output chunk of a cleanup pass.  The
// slice is reused between calls.
type emitFunc func(t int, chunk []int64) error

// shuffleCleanup performs the paper's combined shuffle + local sort pass
// (ExpectedTwoPass step 2, ThreePass2 step 4): conceptually shuffle the
// sequences into Z and repair bounded displacement; operationally, read the
// t-th chunk-worth of every sequence (chunk/len(seqs) keys each), sort it,
// symmerge with the carried upper half of the previous window, and emit the
// lower half.  Because the rolling clean re-sorts every chunk, the shuffle's
// interleaving order inside a chunk is immaterial, so no in-memory
// permutation is needed.
//
// The emitted stream is verified nondecreasing across chunk boundaries —
// the paper's largest-key-shipped check — and ErrCleanupOverflow is returned
// on violation.  Memory: exactly 2·chunk keys.  One pass.
func shuffleCleanup(a *pdm.Array, seqs []seqView, chunk int, emit emitFunc) error {
	g, err := checkGeometry(a)
	if err != nil {
		return err
	}
	nseq := len(seqs)
	if nseq == 0 || chunk%nseq != 0 {
		return fmt.Errorf("core: chunk %d not divisible by %d sequences", chunk, nseq)
	}
	per := chunk / nseq
	if per%g.b != 0 {
		return fmt.Errorf("core: per-sequence chunk share %d not a multiple of B = %d", per, g.b)
	}
	seqLen := seqs[0].keys
	for i, s := range seqs {
		if s.keys != seqLen {
			return fmt.Errorf("core: sequence %d has %d keys, want %d", i, s.keys, seqLen)
		}
	}
	if seqLen%per != 0 {
		return fmt.Errorf("core: sequence length %d not divisible by per-chunk share %d", seqLen, per)
	}
	chunks := seqLen / per
	perBlocks := per / g.b
	// The t-th gather touches block t·perBlocks.. of every sequence — pure
	// address arithmetic, so the shuffle reads are pre-planned and the
	// prefetcher fetches chunk t+1 while chunk t is sorted and merged.
	rd, err := stream.NewReader(a, chunks, func(t int) []pdm.BlockAddr {
		addrs := make([]pdm.BlockAddr, 0, nseq*perBlocks)
		for _, s := range seqs {
			for bidx := 0; bidx < perBlocks; bidx++ {
				addrs = append(addrs, s.blockAddr(t*perBlocks+bidx))
			}
		}
		return addrs
	})
	if err != nil {
		return err
	}
	defer rd.Close()
	// The chunk layout — sequence i's share at dst[i·per:(i+1)·per] — is
	// exactly the flat order of the planned gather.
	readChunk := func(t int, dst []int64) error {
		return rd.FillFlat(dst)
	}
	return rollingPass(a, chunk, chunks, readChunk, emit)
}

// rollingPass is the carry/merge/emit engine shared by every cleanup pass:
// chunks arrive through read, each is sorted, symmerged in place with the
// carried upper half of the previous window (memory: exactly 2·chunk keys),
// and the lower half is emitted.  Emission order is verified nondecreasing;
// a violation aborts with ErrCleanupOverflow.
func rollingPass(a *pdm.Array, chunk, chunks int, read func(t int, dst []int64) error, emit emitFunc) error {
	buf, err := a.Arena().Alloc(2 * chunk)
	if err != nil {
		return err
	}
	defer a.Arena().Free(buf)
	pool := a.Pool()
	carry := buf[:chunk]
	if err := read(0, carry); err != nil {
		return err
	}
	pool.SortKeys(carry)
	var lastMax int64
	emitted := false
	for t := 1; t < chunks; t++ {
		// Canceled jobs abort between chunks even when every read is
		// served from prefetched staging and every emit is write-behind —
		// the scheduler's cancellation must not wait out a compute-bound
		// cleanup pass.
		if err := a.CtxErr(); err != nil {
			return err
		}
		cur := buf[chunk:]
		if err := read(t, cur); err != nil {
			return err
		}
		pool.SortKeys(cur)
		pool.SymMerge(buf, chunk)
		if emitted && buf[0] < lastMax {
			return ErrCleanupOverflow
		}
		lastMax = buf[chunk-1]
		emitted = true
		if err := emit(t-1, buf[:chunk]); err != nil {
			return err
		}
		copy(buf[:chunk], buf[chunk:])
	}
	if emitted && buf[0] < lastMax {
		return ErrCleanupOverflow
	}
	return emit(chunks-1, buf[:chunk])
}

// sequentialEmit returns an emitFunc writing chunks consecutively to out.
func sequentialEmit(out *pdm.Stripe) emitFunc {
	return func(t int, chunk []int64) error {
		return out.WriteAt(t*len(chunk), chunk)
	}
}

// streamEmit is sequentialEmit through the write-behind writer w: the
// rolling pass hands over a chunk and continues sorting the next one while
// the writer flushes.  The caller owns w and must Close it before reading
// or freeing out.
func streamEmit(w *stream.Writer, out *pdm.Stripe) emitFunc {
	return func(t int, chunk []int64) error {
		return w.WriteFlat(stripeAddrs(out, t*len(chunk), len(chunk)), chunk)
	}
}

// Finish assembles a Result from the stats delta since start.  It is
// exported for the baseline algorithms (internal/baseline), which share the
// Result currency with the paper's algorithms.
func Finish(a *pdm.Array, out *pdm.Stripe, n int, start pdm.Stats, fellBack bool) *Result {
	return finish(a, out, n, start, fellBack)
}

// RollingPass exposes the carry/merge/emit cleanup engine to the baseline
// algorithms: chunks arrive through read, are sorted and symmerged with the
// carried upper half of the previous window, and the lower halves are
// emitted in nondecreasing order (ErrCleanupOverflow otherwise).
func RollingPass(a *pdm.Array, chunk, chunks int, read func(t int, dst []int64) error, emit func(t int, chunk []int64) error) error {
	return rollingPass(a, chunk, chunks, read, emit)
}

// SequentialEmit exposes the consecutive-chunk writer for RollingPass.
func SequentialEmit(out *pdm.Stripe) func(t int, chunk []int64) error {
	return sequentialEmit(out)
}

// sortColumns sorts the cnt contiguous colLen-key columns resident in buf:
// across the workers when several columns are in memory at once, and inside
// the single column otherwise — both bit-identical to serial column sorts.
func sortColumns(pool *par.Pool, buf []int64, colLen, cnt int) {
	if cnt == 1 {
		pool.SortKeys(buf[:colLen])
		return
	}
	pool.For(cnt*colLen, cnt, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			pool.SortSegment(buf[c*colLen : (c+1)*colLen])
		}
	})
}

// freeAll frees every stripe in the slice.
func freeAll(ss []*pdm.Stripe) {
	for _, s := range ss {
		if s != nil {
			s.Free()
		}
	}
}
