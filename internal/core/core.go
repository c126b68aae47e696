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

// Finish assembles a Result from the stats delta since start.  The
// baseline algorithms (internal/baseline) share this Result currency with
// the paper's algorithms.
func Finish(a *pdm.Array, out *pdm.Stripe, n int, start pdm.Stats, fellBack bool) *Result {
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

// seqView addresses a sequence stored as every strideBlk-th block of a
// stripe, starting at startBlk.  Interleaving several sequences on one
// stripe this way lets a pass write small per-group outputs with full
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

// plan is a pass's read plan, as stream.NewReader takes it: plan(t, dst)
// appends chunk t's block addresses to dst and returns the result.
type plan = func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr

// stripeAddrs appends the block addresses of keys [keyOff, keyOff+nKeys)
// of s to dst.  The ranges used by the algorithms are valid by
// construction, so a failure is an internal bug.
func stripeAddrs(dst []pdm.BlockAddr, s *pdm.Stripe, keyOff, nKeys int) []pdm.BlockAddr {
	addrs, err := s.AppendAddrs(dst, keyOff, nKeys)
	if err != nil {
		panic(err)
	}
	return addrs
}

// segments is the read plan of a pass over consecutive seg-key segments of
// s starting at key off: segment t's block addresses.
func segments(s *pdm.Stripe, off, seg int) plan {
	return func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr {
		return stripeAddrs(dst, s, off+t*seg, seg)
	}
}

// formRuns reads consecutive runLen-key segments of in[off:off+n] and
// writes segment i to its own stripe with skew i, block-exact at per keys:
// every aligned per-key block of a run holds exactly the keys a sort of the
// segment puts there, in unspecified order (memsort.RadixBlocks).  That is
// all ExpectedTwoPass's cleanup reads of a run — its t-th memory load is
// block t of every run, sorted from scratch — so each load holds the keys
// it would hold over sorted runs, and the output and the overflow decision
// are those of sorted runs.  One pass driven by stream.Pass, so with
// pipelining configured the segment reads and run writes overlap the
// compute.  per must be a multiple of B, runLen a multiple of per and
// ≤ M, and n a multiple of runLen.  On error no run stays allocated.
func formRuns(a *pdm.Array, in *pdm.Stripe, off, n, runLen, per int) ([]*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if runLen > g.m || n%runLen != 0 || per <= 0 || per%g.b != 0 || runLen%per != 0 {
		return nil, fmt.Errorf("core: bad run geometry: n = %d, runLen = %d, per = %d, M = %d, B = %d", n, runLen, per, g.m, g.b)
	}
	buf, err := a.Arena().Alloc(runLen)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	// The split's scratch is the load the radix kernel would have borrowed
	// to sort the run, so the phase peak is that of sorted runs.
	var scratch []int64
	if runLen >= memsort.RadixMinKeys {
		if scratch, err = a.Arena().Alloc(runLen); err != nil {
			return nil, err
		}
		defer a.Arena().Free(scratch)
	}
	numRuns := n / runLen
	// A cleanup chunk reads per/B consecutive blocks from every run, so
	// spacing the run skews by per/B tiles the disks exactly; unit spacing
	// would overlap the runs' diagonal ranges whenever per/B < D.
	skewStep := per / g.b
	runs := make([]*pdm.Stripe, 0, numRuns)
	err = stream.Pass(a, numRuns, segments(in, off, runLen), buf, func(i int, run []int64, w *stream.Writer) error {
		memsort.RadixBlocks(run, scratch, per)
		s, err := a.NewStripeSkew(runLen, i*skewStep)
		if err != nil {
			return err
		}
		runs = append(runs, s)
		return w.WriteStripe(s, 0, run)
	})
	if err != nil {
		freeAll(runs)
		return nil, err
	}
	return runs, nil
}

// formRunsUnshuffled is run formation combined with the paper's first
// unshuffle (ThreePass2 step 2): each run is written as m parts, part p
// holding the run's keys of rank ≡ p (mod m); part p occupies blocks
// [p·partLen/B, (p+1)·partLen/B) of the run's stripe.  partLen = runLen/m
// must be a multiple of B.  Still exactly one pass.
//
// The run is not sorted, only made block-exact at m keys
// (memsort.RadixBlocks): block r holds the keys of ranks [r·m, (r+1)·m) in
// unspecified order, and part p takes the p-th key of every block.  What
// Lemma 4.1 needs of the parts survives: for any threshold x, the keys
// below x fill a prefix of the ranks, so every block wholly below x gives
// each part one key, at most one block straddles x, and it gives each
// part at most one more — the parts' counts below x stay within one of
// each other, exactly as for a sorted run.  Summed over the l runs, the
// counts of the L_j that pass 2 builds differ by at most l, which bounds
// the shuffle's dirtiness by l·m.
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
	pool := a.Pool()
	numRuns := n / runLen
	skewStep := mergeSkewStep(g, numRuns, partLen/g.b, m)
	runs := make([]*pdm.Stripe, 0, numRuns)
	err = stream.Pass(a, numRuns, segments(in, off, runLen), buf, func(i int, run []int64, w *stream.Writer) error {
		// parts is dead until the unshuffle below, so the split uses it
		// as scatter scratch — no extra arena memory.
		memsort.RadixBlocks(run, parts, m)
		// Gather part p at parts[p*partLen : (p+1)*partLen] — a transpose
		// of the run viewed as partLen blocks (rows) of m keys.
		pool.Transpose(parts, run, partLen, m)
		s, err := a.NewStripeSkew(runLen, i*skewStep)
		if err != nil {
			return err
		}
		runs = append(runs, s)
		return w.WriteStripe(s, 0, parts)
	})
	if err != nil {
		freeAll(runs)
		return nil, err
	}
	return runs, nil
}

// mergeSkewStep returns the skew spacing (in blocks) between the stripes of
// l runs whose m parts (partBlocks blocks each) mergePartGroups will read
// group-wise: b·partBlocks for the (l, m)-merge's batch b, the number of
// part groups pass 2 gathers and merges per memory load.  Run i's stripe
// is skewed by i·b·partBlocks, so a batch's reads are l·b·partBlocks
// consecutive disks and its writes fill a stripe from its first block:
// both cost ⌈b·l·partBlocks/D⌉ steps.  b is therefore the smallest batch
// that is a whole number of D-block steps (b·l·partBlocks ≡ 0 mod D) and
// still fits in memory; when no such batch fits, it is the fitting batch
// with the fewest pass-2 steps in total (mergeSteps, the smallest such b
// on a tie).  Whenever l·partBlocks divides D this is D/(l·partBlocks).
func mergeSkewStep(g geometry, l, partBlocks, m int) int {
	if l <= 0 || partBlocks <= 0 || m <= 0 {
		return 1
	}
	group := l * partBlocks
	most := min(g.m/(group*g.b), m)
	for b := 1; b <= most; b++ {
		if b*group%g.d == 0 {
			return b * partBlocks
		}
	}
	best, fewest := 1, -1
	for b := 1; b <= most; b++ {
		if r, w := mergeSteps(g, l, partBlocks, m, b); fewest < 0 || r+w < fewest {
			best, fewest = b, r+w
		}
	}
	return best * partBlocks
}

// mergeSteps counts the read and write steps of mergePartGroups over m part
// groups of l runs × partBlocks blocks at batch b.  Every full batch costs
// ⌈b·l·partBlocks/D⌉ each way (see mergeSkewStep).  The last batch may
// hold only r < b groups; its reads are the first r·partBlocks blocks of
// each run's b·partBlocks-block window, and its writes keep the full
// batch's interleave stride b (block t of group gj at stripe block
// t·b + gj), so both are priced by the disks they actually touch.
func mergeSteps(g geometry, l, partBlocks, m, b int) (read, write int) {
	full, r := m/b, m%b
	steps := memsort.CeilDiv(b*l*partBlocks, g.d)
	read, write = full*steps, full*steps
	if r > 0 {
		read += maxDiskLoad(g.d, l, b*partBlocks, r*partBlocks)
		write += maxDiskLoad(g.d, l*partBlocks, b, r)
	}
	return read, write
}

// maxDiskLoad is the step cost of one request for n windows of width
// consecutive blocks, window i starting at block i·stride of a stripe:
// the most blocks any one of the d disks serves.
func maxDiskLoad(d, n, stride, width int) int {
	load := make([]int, d)
	most := 0
	for i := 0; i < n; i++ {
		for k := 0; k < width; k++ {
			disk := (i*stride + k) % d
			load[disk]++
			most = max(most, load[disk])
		}
	}
	return most
}

// mergePartGroups performs the (l,m)-merge's middle pass (ThreePass2
// step 3): for each part index j, gather part j of every run (l·partLen ≤ M
// keys) into L_j and write it out — one pass.
//
// L_j is block-exact, not sorted: every B-key block of it holds exactly the
// keys of its ranks, in unspecified order (memsort.RadixBlocks).  That is
// all the shuffle pass reads from it — each of its memory loads is whole
// blocks of every L_j, sorted from scratch (shuffleCleanup) — so order
// inside a block would be thrown away.  So each gathered group is split in
// place rather than merged, although its lanes are sorted (part p of a run
// takes the p-th key of every rank-ordered block, formRunsUnshuffled): a
// merge of uniform lanes leaves its gallop mode within a few windows and
// would split its tail the same way.  The split is the same at every
// worker count.
//
// Groups are processed mergeSkewStep's batch at a time (the last batch may
// be short), and a batch's output blocks are interleaved round-robin on one
// shared stripe: the batched write fills the stripe from its first block
// (full write parallelism), and the returned strided views still expose
// block t of every L_j on distinct disks for the following shuffle pass.
// A short last batch keeps the full batch's stride, leaving holes, so that
// block t of every L_s sits on disk (s + batch·t) mod D and the shuffle's
// reads stay evenly spread.  On error no backing stripe stays allocated.
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
	batch := mergeSkewStep(g, l, partBlocks, m) / partBlocks
	in, err := a.Arena().Alloc(batch * group)
	if err != nil {
		return nil, nil, err
	}
	defer a.Arena().Free(in)
	scratch, err := a.Arena().Alloc(batch * group)
	if err != nil {
		return nil, nil, err
	}
	defer a.Arena().Free(scratch)
	pool := a.Pool()
	merged := make([]seqView, m)
	backing := make([]*pdm.Stripe, 0, memsort.CeilDiv(m, batch))
	groupBlocks := group / g.b
	// The gather pattern of every batch is pure address arithmetic over the
	// immutable run stripes, so batch bi+1 streams in while batch bi is
	// being split and its output staged behind the writer.  Part j of run
	// i lands at in[gj*group + i*partLen : ...] — exactly the flat order of
	// the planned chunk.
	gather := func(bi int, addrs []pdm.BlockAddr) []pdm.BlockAddr {
		gs := min(batch, m-bi*batch)
		for gj := 0; gj < gs; gj++ {
			j := bi*batch + gj
			for _, r := range runs {
				for bidx := 0; bidx < partBlocks; bidx++ {
					addrs = append(addrs, r.BlockAddr(j*partBlocks+bidx))
				}
			}
		}
		return addrs
	}
	var waddrs []pdm.BlockAddr
	var wbufs [][]int64
	// split splits each group of the batch in the head of in block-exactly;
	// made once, so a batch costs no closure.
	split := func(_, lo, hi int) {
		for gj := lo; gj < hi; gj++ {
			memsort.RadixBlocks(in[gj*group:(gj+1)*group], scratch[gj*group:(gj+1)*group], g.b)
		}
	}
	err = stream.Pass(a, memsort.CeilDiv(m, batch), gather, in, func(bi int, chunk []int64, w *stream.Writer) error {
		gs := len(chunk) / group
		// Split the groups, spread across the workers.
		pool.For(gs*group, gs, split)
		// One shared stripe per batch, blocks interleaved round-robin:
		// stripe block blk·batch + gj holds block blk of group
		// bi·batch + gj.  A short batch's stripe ends at its last block.
		bs, err := a.NewStripeSkew(((groupBlocks-1)*batch+gs)*g.b, bi*batch)
		if err != nil {
			return err
		}
		backing = append(backing, bs)
		waddrs, wbufs = waddrs[:0], wbufs[:0]
		for blk := 0; blk < groupBlocks; blk++ {
			for gj := 0; gj < gs; gj++ {
				waddrs = append(waddrs, bs.BlockAddr(blk*batch+gj))
				wbufs = append(wbufs, chunk[gj*group+blk*g.b:gj*group+(blk+1)*g.b])
			}
		}
		for gj := 0; gj < gs; gj++ {
			merged[bi*batch+gj] = seqView{s: bs, startBlk: gj, strideBlk: batch, keys: group}
		}
		return w.Write(waddrs, wbufs)
	})
	if err != nil {
		freeAll(backing)
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
// merge it with the carried upper half of the previous window, and emit the
// lower half.  Because the rolling clean re-sorts every chunk, the shuffle's
// interleaving order inside a chunk is immaterial, so no in-memory
// permutation is needed.
//
// The emitted stream is verified nondecreasing across chunk boundaries —
// the paper's largest-key-shipped check — and ErrCleanupOverflow is returned
// on violation.  Memory: RollingPass's 3·chunk keys.  One pass.
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
	// Whole blocks per sequence is also what lets the sequences be
	// block-exact rather than sorted (formRuns, mergePartGroups): a load
	// of whole blocks holds the same keys either way, and it is sorted
	// here.
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
	perBlocks := per / g.b
	// The t-th gather touches block t·perBlocks.. of every sequence — pure
	// address arithmetic, so the shuffle reads are pre-planned and the
	// prefetcher fetches chunk t+1 while chunk t is sorted and merged.  The
	// chunk layout — sequence i's share at dst[i·per:(i+1)·per] — is exactly
	// the flat order of the planned gather.
	return streamedCleanup(a, chunk, seqLen/per, func(t int, addrs []pdm.BlockAddr) []pdm.BlockAddr {
		for _, s := range seqs {
			for bidx := 0; bidx < perBlocks; bidx++ {
				addrs = append(addrs, s.blockAddr(t*perBlocks+bidx))
			}
		}
		return addrs
	}, emit)
}

// streamedCleanup is RollingPass over chunks streamed by a prefetching
// reader: chunk t is the blocks planned by readPlan(t, dst).
func streamedCleanup(a *pdm.Array, chunk, chunks int, readPlan plan, emit emitFunc) error {
	rd, err := stream.NewReader(a, chunks, readPlan)
	if err != nil {
		return err
	}
	defer rd.Close()
	return RollingPass(a, chunk, chunks, func(_ int, dst []int64) error {
		return rd.FillFlat(dst)
	}, emit)
}

// RollingPass is the carry/merge/emit engine shared by every cleanup pass,
// the baseline algorithms' included: chunks arrive through read, each is
// sorted and merged forward with the carried upper half of the previous
// window, and the lower half is emitted.  Memory: 3·chunk keys — the carry
// and the incoming chunk, plus the chunk the two merges write into, which
// is also the sort kernel's scratch, so the kernel borrows nothing.  The
// two sorted lanes are cut at rank chunk (memsort.CutLanes): their lower
// parts merge into the spare chunk and are emitted, then their upper parts
// merge into it and it becomes the next carry.  emit must be done with its
// chunk when it returns.  Emission order is verified nondecreasing; a
// violation aborts with ErrCleanupOverflow.
func RollingPass(a *pdm.Array, chunk, chunks int, read func(t int, dst []int64) error, emit func(t int, chunk []int64) error) error {
	if chunk <= 0 || chunks < 0 {
		return fmt.Errorf("core: rolling pass over %d chunks of %d keys", chunks, chunk)
	}
	if chunks == 0 {
		return nil
	}
	buf, err := a.Arena().Alloc(2 * chunk)
	if err != nil {
		return err
	}
	defer a.Arena().Free(buf)
	out, err := a.Arena().Alloc(chunk)
	if err != nil {
		return err
	}
	defer a.Arena().Free(out) // out as allocated: the loop swaps it with the carry
	pool := a.Pool()
	carry, cur := buf[:chunk], buf[chunk:]
	if err := read(0, carry); err != nil {
		return err
	}
	pool.SortKeysScratch(carry, out)
	lanes := make([][]int64, 2)
	var lastMax int64
	for t := 1; t < chunks; t++ {
		// Canceled jobs abort between chunks even when every read is
		// served from prefetched staging and every emit is write-behind —
		// the scheduler's cancellation must not wait out a compute-bound
		// cleanup pass.
		if err := a.CtxErr(); err != nil {
			return err
		}
		if err := read(t, cur); err != nil {
			return err
		}
		pool.SortKeysScratch(cur, out)
		lanes[0], lanes[1] = carry, cur
		cuts := memsort.CutLanes(lanes, chunk)
		lanes[0], lanes[1] = carry[:cuts[0]], cur[:cuts[1]]
		pool.MultiMerge(out, lanes)
		if t > 1 && out[0] < lastMax {
			return ErrCleanupOverflow
		}
		lastMax = out[chunk-1]
		if err := emit(t-1, out); err != nil {
			return err
		}
		lanes[0], lanes[1] = carry[cuts[0]:], cur[cuts[1]:]
		pool.MultiMerge(out, lanes)
		carry, out = out, carry
	}
	if chunks > 1 && carry[0] < lastMax {
		return ErrCleanupOverflow
	}
	return emit(chunks-1, carry)
}

// SequentialEmit returns an emit function for RollingPass writing chunks
// consecutively to out.
func SequentialEmit(out *pdm.Stripe) func(t int, chunk []int64) error {
	return func(t int, chunk []int64) error {
		return out.WriteAt(t*len(chunk), chunk)
	}
}

// streamEmit is SequentialEmit through the write-behind writer w: the
// rolling pass hands over a chunk and continues sorting the next one while
// the writer flushes.  The caller owns w and must Close it before reading
// or freeing out.
func streamEmit(w *stream.Writer, out *pdm.Stripe) emitFunc {
	return func(t int, chunk []int64) error {
		return w.WriteStripe(out, t*len(chunk), chunk)
	}
}

// sink is where a cleanup pass's sorted chunks go: the caller's emit when
// there is one, otherwise a fresh n-key stripe written behind.
type sink struct {
	emit emitFunc
	out  *pdm.Stripe
	w    *stream.Writer
}

func newSink(a *pdm.Array, n int, emit emitFunc) (*sink, error) {
	if emit != nil {
		return &sink{emit: emit}, nil
	}
	out, err := a.NewStripe(n)
	if err != nil {
		return nil, err
	}
	w, err := stream.NewWriter(a)
	if err != nil {
		out.Free()
		return nil, err
	}
	return &sink{emit: streamEmit(w, out), out: out, w: w}, nil
}

// close joins the sink's writes and returns its stripe, nil for a caller's
// emit.  The cleanup's error, or else a failed flush, frees the stripe and
// is returned.
func (s *sink) close(err error) (*pdm.Stripe, error) {
	if s.w != nil {
		if cerr := s.w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if s.out != nil {
			s.out.Free()
		}
		return nil, err
	}
	return s.out, nil
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
