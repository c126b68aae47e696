package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/freelist"
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
	dir      *directory
}

// directory holds a sort's bucket directories in flat arrays that only
// grow during the sort: a scatter pass logs every block it places, then
// files the log by bucket at their ends.  Sorts hand it on through
// directories, so a warm sort's directories allocate nothing.
type directory struct {
	log    []placed
	per    []int // each bucket's next slot while the log is filed
	addrs  []pdm.BlockAddr
	counts []int
}

// placed is one logged block: its bucket, address and valid key count.
type placed struct {
	bucket int
	addr   pdm.BlockAddr
	words  int
}

// directories holds the directories finished sorts handed on, so a warm
// sort allocates the same whether or not the GC ran before it.
var directories freelist.List[directory]

// stripeSeq views a whole stripe as a blockSeq of full blocks, listed in
// the directory.
func (st *scatterState) stripeSeq(s *pdm.Stripe) blockSeq {
	d := st.directory()
	at := len(d.addrs)
	for j := range s.Blocks() {
		d.addrs, d.counts = append(d.addrs, s.BlockAddr(j)), append(d.counts, s.Array().B())
	}
	return blockSeq{addrs: d.addrs[at:len(d.addrs):len(d.addrs)], counts: d.counts[at:len(d.counts):len(d.counts)], total: s.Len()}
}

// directory returns the sort's directory, taking one on first use.
func (st *scatterState) directory() *directory {
	if st.dir == nil {
		st.dir = directories.Take()
	}
	return st.dir
}

// release frees the scatter stripes and hands the directory on; no
// blockSeq the sort built may be read afterwards.
func (st *scatterState) release() {
	for _, s := range st.stripes {
		s.Free()
	}
	st.stripes = nil
	if d := st.dir; d != nil {
		d.log, d.addrs, d.counts = d.log[:0], d.addrs[:0], d.counts[:0]
		directories.Put(d)
		st.dir = nil
	}
}

// place returns the address of bucket's next block, holding words keys —
// the next free row on the bucket's next rotation disk — and logs it for
// the end of the bucket's run seq (file).
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
	dir := st.directory()
	dir.log = append(dir.log, placed{bucket, addr, words})
	seq.total += words
	return addr, nil
}

// file appends the logged blocks to the directory bucket by bucket, in log
// order within each, and points each child run at its share.
func (st *scatterState) file(children []blockSeq) {
	d := st.directory()
	d.per = slices.Grow(d.per[:0], len(children))[:len(children)]
	clear(d.per)
	for _, p := range d.log {
		d.per[p.bucket]++
	}
	at, end := len(d.addrs), len(d.addrs)+len(d.log)
	d.addrs, d.counts = slices.Grow(d.addrs, len(d.log))[:end], slices.Grow(d.counts, len(d.log))[:end]
	for b, n := range d.per {
		children[b].addrs, children[b].counts = d.addrs[at:at+n:at+n], d.counts[at:at+n:at+n]
		d.per[b] = at
		at += n
	}
	for _, p := range d.log {
		i := d.per[p.bucket]
		d.addrs[i], d.counts[i] = p.addr, p.words
		d.per[p.bucket]++
	}
	d.log = d.log[:0]
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
	if err := sc.Flush(); err != nil {
		return nil, err
	}
	st.file(children)
	return children, nil
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
			if err := ap.w.WriteStripe(ap.out, ap.pos, ap.buf[:full]); err != nil {
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
	err := ap.w.WriteStripe(ap.out, ap.pos, ap.buf[:ap.fill])
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
	// The stream is the runs' concatenation; ends[i] is the block count
	// of runs[:i+1], so a chunk's plan finds its first run by search and
	// the consumer walks the runs with a cursor — no copy of the
	// directories.
	ends := make([]int, len(runs))
	total := 0
	for i, run := range runs {
		total += len(run.addrs)
		ends[i] = total
	}
	rd, err := stream.NewReader(a, memsort.CeilDiv(total, batchBlocks), func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr {
		lo, hi := t*batchBlocks, min((t+1)*batchBlocks, total)
		ri := sort.SearchInts(ends, lo+1)
		for j := lo; j < hi; j++ {
			for ends[ri] <= j {
				ri++
			}
			dst = append(dst, runs[ri].addrs[j-ends[ri]+len(runs[ri].addrs)])
		}
		return dst
	})
	if err != nil {
		return err
	}
	defer rd.Close()
	ri, bi := 0, 0 // the consumer's run and block
	for pos := 0; pos < total; {
		batch := min(total-pos, batchBlocks)
		if err := rd.FillFlat(raw[:batch*g.b]); err != nil {
			return err
		}
		for i := 0; i < batch; i++ {
			for bi == len(runs[ri].addrs) {
				ri, bi = ri+1, 0
			}
			if err := sink(ri, raw[i*g.b:i*g.b+runs[ri].counts[bi]]); err != nil {
				return err
			}
			bi++
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
	defer st.release()
	a.Arena().SetPhase("integersort/scatter")
	runs, err := scatterPass(a, st.stripeSeq(in), r, func(k int64) int { return int(k) }, st)
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
