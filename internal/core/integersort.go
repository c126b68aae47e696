package core

import (
	"fmt"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// blockSeq is a sequence of keys stored as addressed blocks with per-block
// valid counts — the representation of the bucket runs IntegerSort builds.
// Blocks may be partially full (the paper's "some of the blocks could be
// nonfull"); the directory of counts is in-memory metadata, as in the paper.
type blockSeq struct {
	addrs  []pdm.BlockAddr
	counts []int
	total  int
}

// stripeBlockSeq views a whole stripe as a blockSeq of full blocks.
func stripeBlockSeq(s *pdm.Stripe) blockSeq {
	b := s.Array().B()
	seq := blockSeq{
		addrs:  make([]pdm.BlockAddr, s.Blocks()),
		counts: make([]int, s.Blocks()),
		total:  s.Len(),
	}
	for j := range seq.addrs {
		seq.addrs[j] = s.BlockAddr(j)
		seq.counts[j] = b
	}
	return seq
}

// scatterState carries what the scatter passes of one sort share.  Every
// bucket keeps its own disk-rotation cursor, continuing across passes, so
// each run is striped round-robin across the disks in its own right — the
// LMM striping of [23] the paper prescribes — and later sequential reads of
// any run achieve full parallelism.  Each disk keeps a row cursor over the
// scratch stripes backing the runs, which are allocated one memory load (C
// rows) at a time and freed together when the sort ends.
type scatterState struct {
	nextDisk []int
	rows     []int
	stripes  []*pdm.Stripe
}

func (st *scatterState) freeStripes() {
	for _, s := range st.stripes {
		s.Free()
	}
	st.stripes = nil
}

// place returns the address of bucket's next block, holding words keys —
// the next free row on the bucket's next rotation disk — and records it at
// the end of the bucket's run seq.
func (st *scatterState) place(a *pdm.Array, g geometry, seq *blockSeq, bucket, words int) (pdm.BlockAddr, error) {
	d := st.nextDisk[bucket]
	st.nextDisk[bucket] = (d + 1) % g.d
	row, c := st.rows[d], g.m/g.dxb
	if row == len(st.stripes)*c {
		s, err := a.NewStripe(g.m)
		if err != nil {
			return pdm.BlockAddr{}, err
		}
		st.stripes = append(st.stripes, s)
	}
	st.rows[d]++
	addr := st.stripes[row/c].BlockAddr(row%c*g.d + d)
	seq.addrs = append(seq.addrs, addr)
	seq.counts = append(seq.counts, words)
	seq.total += words
	return addr, nil
}

// scatterPass streams src one stripe per request and distributes its keys
// into r bucket runs according to bucketOf, which must be monotone
// nondecreasing in the key (true for identity buckets and for any
// most-significant-digit extractor).
//
// The keys go to a stream.Scatter of r buckets — the bucket writer records
// and scenario's partitioned group-by share — which fills one carry block
// per bucket (r·B ≤ M keys) and writes each full one at the bucket's next
// rotation address, at most one block per disk per request.  Padding
// appears only in the final flush: at most one non-full block per bucket
// for the whole pass, which is what keeps the paper's µ < 1.  Memory is the
// carries, the Scatter's stage of M and one stripe of read buffer: 2M + D·B.
func scatterPass(a *pdm.Array, src blockSeq, r int, bucketOf func(int64) int, st *scatterState) ([]blockSeq, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if st.nextDisk == nil {
		st.nextDisk = make([]int, r)
		for i := range st.nextDisk {
			st.nextDisk[i] = i % g.d
		}
		st.rows = make([]int, g.d)
	}
	children := make([]blockSeq, r)
	sc, err := stream.NewScatter(a, r, func(bkt, words int) (pdm.BlockAddr, error) {
		return st.place(a, g, &children[bkt], bkt, words)
	})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	raw, err := a.Arena().Alloc(g.dxb)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(raw)

	err = streamBlockSeqs(a, g, []blockSeq{src}, raw, func(_ int, keys []int64) error {
		for i, k := range keys {
			if err := sc.Append(bucketOf(k), keys[i:i+1]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return children, sc.Flush()
}

// appender streams compacted keys into a stripe through a write-behind
// writer.  It buffers internally and writes only when its buffer fills, so
// callers may feed it arbitrarily small pieces without degrading the
// parallel write efficiency: every submitted request moves whole stripes,
// or whole blocks when the buffer holds less than one stripe (C = 1).
// The owner of w must Close it after flush to join the in-flight writes.
type appender struct {
	out  *pdm.Stripe
	w    *stream.Writer
	buf  []int64 // buf[:fill] is pending output
	fill int
	pos  int
	b    int
}

func (ap *appender) append(keys []int64) error {
	for len(keys) > 0 {
		n := len(ap.buf) - ap.fill
		if n > len(keys) {
			n = len(keys)
		}
		copy(ap.buf[ap.fill:], keys[:n])
		ap.fill += n
		keys = keys[n:]
		if ap.fill == len(ap.buf) {
			unit := ap.out.Array().StripeWidth()
			if ap.fill < unit {
				unit = ap.b
			}
			full := ap.fill / unit * unit
			if err := ap.w.WriteFlat(stripeAddrs(ap.out, ap.pos, full), ap.buf[:full]); err != nil {
				return err
			}
			ap.pos += full
			copy(ap.buf, ap.buf[full:ap.fill])
			ap.fill -= full
		}
	}
	return nil
}

func (ap *appender) flush() error {
	if ap.fill == 0 {
		return nil
	}
	if ap.fill%ap.b != 0 {
		return fmt.Errorf("core: appender flush with %d keys not block aligned", ap.fill)
	}
	err := ap.w.WriteFlat(stripeAddrs(ap.out, ap.pos, ap.fill), ap.buf[:ap.fill])
	ap.pos += ap.fill
	ap.fill = 0
	return err
}

// streamBlockSeqs reads the concatenation of the given runs' blocks in
// large balanced batches (batchBlocks per vectored request) and hands each
// block's compacted keys to sink(run index, keys).  The per-run round-robin
// striping makes every batch spread evenly across the disks regardless of
// where run boundaries fall.
func streamBlockSeqs(a *pdm.Array, g geometry, runs []blockSeq, raw []int64, sink func(run int, keys []int64) error) error {
	batchBlocks := len(raw) / g.b
	if batchBlocks == 0 {
		return fmt.Errorf("core: raw buffer smaller than one block")
	}
	var addrs []pdm.BlockAddr
	var counts []int
	var owner []int
	for ri, run := range runs {
		addrs = append(addrs, run.addrs...)
		counts = append(counts, run.counts...)
		for range run.addrs {
			owner = append(owner, ri)
		}
	}
	chunks := memsort.CeilDiv(len(addrs), batchBlocks)
	rd, err := stream.NewReader(a, chunks, func(t int) []pdm.BlockAddr {
		lo := t * batchBlocks
		hi := lo + batchBlocks
		if hi > len(addrs) {
			hi = len(addrs)
		}
		return addrs[lo:hi]
	})
	if err != nil {
		return err
	}
	defer rd.Close()
	for pos := 0; pos < len(addrs); {
		batch := len(addrs) - pos
		if batch > batchBlocks {
			batch = batchBlocks
		}
		if err := rd.FillFlat(raw[:batch*g.b]); err != nil {
			return err
		}
		for i := 0; i < batch; i++ {
			if err := sink(owner[pos+i], raw[i*g.b:i*g.b+counts[pos+i]]); err != nil {
				return err
			}
		}
		pos += batch
	}
	return nil
}

// rearrangePass is the paper's step A: read the bucket runs in value order
// and write the keys placed contiguously across the disks.  Keys within one
// bucket are equal (bucket = value), so no re-sorting is needed.
func rearrangePass(a *pdm.Array, runs []blockSeq, n int) (*pdm.Stripe, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	out, err := a.NewStripe(n)
	if err != nil {
		return nil, err
	}
	raw, err := a.Arena().Alloc(g.m / 2)
	if err != nil {
		out.Free()
		return nil, err
	}
	defer a.Arena().Free(raw)
	apBuf, err := a.Arena().Alloc(g.m + g.b)
	if err != nil {
		out.Free()
		return nil, err
	}
	defer a.Arena().Free(apBuf)
	w, err := stream.NewWriter(a)
	if err != nil {
		out.Free()
		return nil, err
	}
	ap := &appender{out: out, w: w, buf: apBuf, b: g.b}
	err = streamBlockSeqs(a, g, runs, raw, func(_ int, keys []int64) error {
		return ap.append(keys)
	})
	if err == nil {
		err = ap.flush()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}

// IntegerSort sorts in with the paper's Section 7 algorithm: the keys,
// integers in [0, r) with r defaulting to M/B when r ≤ 0, are distributed
// into r bucket runs in one streaming pass of bucketed block writes
// ((1+µ) passes, µ < 1, from the padding of partial blocks — Theorem 7.1).
// With rearrange, step A places the output contiguously for another (1+µ)
// passes; without it the result remains as padded bucket runs and Out is
// nil (the Result then only reports the I/O accounting).
//
// Keys equal within a bucket are not ordered further — with r = M/B and
// bucket = key value this is a full sort of the bounded-universe keys.
func IntegerSort(a *pdm.Array, in *pdm.Stripe, r int, rearrange bool) (*Result, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if r <= 0 {
		r = g.m / g.b
	}
	start := a.Stats()
	st := &scatterState{}
	defer st.freeStripes()
	a.Arena().SetPhase("integersort/scatter")
	runs, err := scatterPass(a, stripeBlockSeq(in), r, func(k int64) int { return int(k) }, st)
	if err != nil {
		return nil, err
	}
	// Reporting-only pass boundary: the scatter's bucket directory lives
	// in memory, so recovery restarts from input rather than resuming.
	if err := a.PassDone(pdm.Checkpoint{Alg: "intsort", Pass: 1, N: in.Len()}); err != nil {
		return nil, err
	}
	var out *pdm.Stripe
	if rearrange {
		a.Arena().SetPhase("integersort/rearrange")
		out, err = rearrangePass(a, runs, in.Len())
		if err != nil {
			return nil, err
		}
		if err := a.PassDone(pdm.Checkpoint{Alg: "intsort", Pass: 2, N: in.Len()}); err != nil {
			return nil, err
		}
	}
	a.Arena().SetPhase("")
	return Finish(a, out, in.Len(), start, false), nil
}
