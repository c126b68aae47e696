package records

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// headerWords is the serialized segment header: absolute destination word
// offset and word count.
const headerWords = 2

// Result reports one external permutation.
type Result struct {
	// Out holds the re-materialized payloads in target order: Out[j] is the
	// input payload perm[j], read back from the output store.
	Out [][]byte
	// Words is the payload volume in 8-byte words (excluding padding);
	// PaddedWords is the on-disk store length after padding to the block
	// size.
	Words       int
	PaddedWords int
	// IO is the I/O this permutation charged (a delta over the array's
	// statistics).
	IO pdm.Stats
	// Passes is the charged I/O in the paper's currency: parallel steps
	// times the stripe width, over the padded store length.
	Passes float64
	// Levels is the distribution depth (0 when one memory chunk covered the
	// whole output); Fanout is the scatter width used.
	Levels int
	// Fanout is the number of partitions each scatter level splits into.
	Fanout int
}

// PayloadWords returns the store size, in 8-byte words, of the payloads.
func PayloadWords(payloads [][]byte) int {
	w := 0
	for _, p := range payloads {
		w += wordsFor(len(p))
	}
	return w
}

func wordsFor(nbytes int) int { return (nbytes + 7) / 8 }

// DiskEnvelope returns a conservative bound, in keys, on the scratch the
// permutation of n records totalling at most `words` payload words
// allocates on a machine with internal memory mem and stripe geometry d·b.
// The bound covers the input and output stores plus every distribution
// level's partitions (payload data, segment headers, and block padding);
// the scheduler reserves it for the payload spill of a records job.
func DiskEnvelope(n, words, mem, d, b int) int {
	if words <= 0 {
		return 0
	}
	// Disk space is allocated in whole rows of d·b keys, so every stripe
	// rounds up to the row size.
	row := d * b
	padded := memsort.CeilDiv(words, row) * row
	env := 2 * padded // store + output
	chunk, maxF := scatterGeometry(mem, b)
	span := memsort.CeilDiv(padded, chunk) // in chunks
	for span > 1 {
		f := span
		if f > maxF {
			f = maxF
		}
		span = memsort.CeilDiv(span, f)
		nodes := memsort.CeilDiv(padded, span*chunk)
		// One level's partitions all live at once in the worst case: the
		// data, one header per resident segment (at most one per record
		// plus one per node boundary), and one row of rounding per node.
		env += words + headerWords*(n+nodes) + nodes*row
	}
	return env + row
}

// scatterGeometry resolves the distribution parameters: the destination
// chunk size (one internal memory's worth of words) and the scatter fanout
// (as many single-block partition buffers as fit in one memory).  With the
// stream.Scatter stage (a second memory load) and one stripe of read buffer
// a level holds 2·M + D·B, the arena's whole algorithm envelope.
func scatterGeometry(mem, b int) (chunk, maxF int) {
	maxF = mem / b
	if maxF < 2 {
		maxF = 2
	}
	return mem, maxF
}

// permuter carries the shared state of one permutation.
type permuter struct {
	a     *pdm.Array
	b     int
	chunk int
	maxF  int

	n     int
	lens  []int // payload byte lengths, original order
	wlen  []int // payload word lengths, original order
	perm  []int
	destw []int // destination word offset of record i (original index)

	// Destination-order extents for analytic partition sizing: starts[j] is
	// the first output word of sorted position j, nzcnt[j] the number of
	// non-empty records among sorted positions [0, j).
	starts []int
	nzcnt  []int

	words  int
	padded int

	out    *pdm.Stripe
	outw   *stream.Writer
	levels int
	fanout int
}

// Permute moves payloads into perm order through the array's charged I/O:
// perm[j] names the input record that lands at output position j.  The
// payload store starts on disk (loaded uncharged, like every algorithm's
// input) and the permuted store is read back uncharged for the returned
// Result.Out; everything in between — the scatter levels and the final
// placement — is charged through the normal accounting.
func Permute(a *pdm.Array, payloads [][]byte, perm []int) (*Result, error) {
	p, err := newPermuter(a, payloads, perm)
	if err != nil {
		return nil, err
	}
	if p.words == 0 {
		res := p.result(pdm.Stats{})
		return res, p.unload(res)
	}
	store, err := p.loadStore(payloads)
	if err != nil {
		return nil, err
	}
	before := a.Stats()
	if err := p.runFrom(store); err != nil {
		return nil, err
	}
	res := p.result(a.Stats().Sub(before))
	if err := p.unload(res); err != nil {
		return nil, err
	}
	return res, nil
}

func newPermuter(a *pdm.Array, payloads [][]byte, perm []int) (*permuter, error) {
	n := len(payloads)
	if len(perm) != n {
		return nil, fmt.Errorf("records: %d payloads but %d permutation entries", n, len(perm))
	}
	seen := make([]bool, n)
	for j, i := range perm {
		if i < 0 || i >= n || seen[i] {
			return nil, fmt.Errorf("records: perm[%d] = %d is not a permutation of %d records", j, i, n)
		}
		seen[i] = true
	}
	p := &permuter{a: a, b: a.B(), n: n, perm: perm}
	p.chunk, p.maxF = scatterGeometry(a.Mem(), a.B())
	p.lens = make([]int, n)
	p.wlen = make([]int, n)
	for i, pl := range payloads {
		p.lens[i] = len(pl)
		p.wlen[i] = wordsFor(len(pl))
	}
	p.destw = make([]int, n)
	p.starts = make([]int, n+1)
	p.nzcnt = make([]int, n+1)
	off := 0
	for j, i := range perm {
		p.starts[j] = off
		p.nzcnt[j+1] = p.nzcnt[j]
		if p.wlen[i] > 0 {
			p.nzcnt[j+1]++
		}
		p.destw[i] = off
		off += p.wlen[i]
	}
	p.starts[n] = off
	p.words = off
	p.padded = memsort.CeilDiv(off, p.b) * p.b
	return p, nil
}

// loadStore materializes the payload bytes as a word store on disk, in
// original record order, without charging I/O (the input's starting state).
func (p *permuter) loadStore(payloads [][]byte) (*pdm.Stripe, error) {
	data := make([]int64, p.padded)
	off := 0
	for i, pl := range payloads {
		packWords(data[off:off+p.wlen[i]], pl)
		off += p.wlen[i]
	}
	st, err := p.a.NewStripe(p.padded)
	if err != nil {
		return nil, err
	}
	if err := st.Load(data); err != nil {
		st.Free()
		return nil, err
	}
	return st, nil
}

func (p *permuter) result(io pdm.Stats) *Result {
	res := &Result{
		Words:       p.words,
		PaddedWords: p.padded,
		IO:          io,
		Levels:      p.levels,
		Fanout:      p.fanout,
	}
	if p.padded > 0 {
		res.Passes = float64(io.ReadSteps+io.WriteSteps) * float64(p.a.StripeWidth()) / float64(p.padded)
	}
	res.Out = make([][]byte, p.n)
	return res
}

func (p *permuter) unload(res *Result) error {
	var flat []int64
	if p.out != nil {
		var err error
		flat, err = p.out.Unload()
		p.out.Free()
		p.out = nil
		if err != nil {
			return err
		}
	}
	for j, i := range p.perm {
		out := make([]byte, p.lens[i])
		if p.wlen[i] > 0 {
			unpackWords(out, flat[p.starts[j]:p.starts[j]+p.wlen[i]])
		}
		res.Out[j] = out
	}
	return nil
}

// runFrom executes the distribution from an already-loaded store stripe.
func (p *permuter) runFrom(store *pdm.Stripe) (err error) {
	out, err := p.a.NewStripe(p.padded)
	if err != nil {
		store.Free()
		return err
	}
	p.out = out
	defer func() {
		if err != nil && p.out != nil {
			p.out.Free()
			p.out = nil
		}
	}()
	p.outw, err = stream.NewWriter(p.a)
	if err != nil {
		store.Free()
		return err
	}
	defer func() {
		cerr := p.outw.Close()
		if err == nil {
			err = cerr
		}
	}()
	root := &nodeSource{p: p, store: store}
	if err := p.process(0, p.padded, root, 0); err != nil {
		return err
	}
	return nil
}

// process routes the segments of src, all destined for output words
// [lo, hi), to their final positions: directly when the range fits one
// memory chunk, through another scatter level otherwise.  It consumes and
// frees src.  depth is the number of scatter levels above this node; the
// deepest one reached is the distribution depth reported as
// Result.Levels.
func (p *permuter) process(lo, hi int, src *nodeSource, depth int) error {
	if hi-lo <= p.chunk {
		return p.place(lo, hi, src)
	}
	if depth+1 > p.levels {
		p.levels = depth + 1
	}
	children, err := p.scatter(lo, hi, src)
	if err != nil {
		for _, c := range children {
			if c.stripe != nil {
				c.stripe.Free()
			}
		}
		return err
	}
	// Reporting-only boundary: one scatter level of this subtree done.
	// The partition directory lives in memory, so a recovered records
	// job restarts from input rather than resuming mid-tree.
	if err := p.a.PassDone(pdm.Checkpoint{Alg: "permute", Pass: depth + 1, N: p.padded}); err != nil {
		for _, c := range children {
			if c.stripe != nil {
				c.stripe.Free()
			}
		}
		return err
	}
	for _, c := range children {
		// Ownership of the partition stripe transfers to the child source,
		// which frees it when consumed (including on error paths).
		child := &nodeSource{p: p, stripe: c.stripe, words: c.words}
		c.stripe = nil
		if err := p.process(c.lo, c.hi, child, depth+1); err != nil {
			for _, rest := range children {
				if rest.stripe != nil {
					rest.stripe.Free()
				}
			}
			return err
		}
	}
	return nil
}

// child is one partition of a scatter level.
type child struct {
	lo, hi int
	stripe *pdm.Stripe
	words  int // exact serialized words (headers + data)

	buf  []int64 // current block being filled (view into the shared arena buffer)
	fill int
	blk  int // next block index within stripe
}

// nodeWords returns the exact serialized size of the partition holding
// every record piece destined for output words [lo, hi): the clipped data
// plus one header per resident segment.
func (p *permuter) nodeWords(lo, hi int) (words, segments int) {
	if lo >= p.words {
		return 0, 0
	}
	if hi > p.words {
		hi = p.words
	}
	// Sorted positions whose extent overlaps [lo, hi): extents tile
	// [0, words) in destination order, so they form one contiguous run.
	a := sort.Search(p.n, func(j int) bool { return p.starts[j+1] > lo })
	b := sort.Search(p.n, func(j int) bool { return p.starts[j] >= hi })
	segments = p.nzcnt[b] - p.nzcnt[a]
	return (hi - lo) + headerWords*segments, segments
}

// scatter reads src sequentially and routes every segment into one of the
// partitions covering [lo, hi), splitting segments at partition
// boundaries.  Finished blocks go through a stream.Scatter (one block per
// disk per step); the partition stripes' skews are spread evenly round the
// disks, so partitions filling in step do not all queue on the same one.
func (p *permuter) scatter(lo, hi int, src *nodeSource) (children []*child, err error) {
	defer src.free()
	chunks := memsort.CeilDiv(hi-lo, p.chunk)
	f := chunks
	if f > p.maxF {
		f = p.maxF
	}
	span := memsort.CeilDiv(chunks, f) * p.chunk
	// The span rounds up to whole chunks, so fewer children than f may be
	// needed to cover the range.
	f = memsort.CeilDiv(hi-lo, span)
	if p.fanout == 0 || f > p.fanout {
		p.fanout = f
	}
	bufs, err := p.a.Arena().Alloc(f * p.b)
	if err != nil {
		return nil, err
	}
	defer p.a.Arena().Free(bufs)
	for c := 0; c < f; c++ {
		clo := lo + c*span
		chi := clo + span
		if chi > hi {
			chi = hi
		}
		words, _ := p.nodeWords(clo, chi)
		ch := &child{lo: clo, hi: chi, words: words, buf: bufs[c*p.b : (c+1)*p.b]}
		if words > 0 {
			stripe, err := p.a.NewStripeSkew(memsort.CeilDiv(words, p.b)*p.b, c*max(1, p.a.D()/f))
			if err != nil {
				return children, err
			}
			ch.stripe = stripe
		}
		children = append(children, ch)
	}
	sc, err := stream.NewScatter(p.a)
	if err != nil {
		return children, err
	}
	defer sc.Close()
	route := func(dest, nw int, ws *wordStream) error {
		for nw > 0 {
			c := (dest - lo) / span
			end := children[c].hi
			if end > dest+nw {
				end = dest + nw
			}
			take := end - dest
			if err := p.emit(children[c], sc, dest, take, ws); err != nil {
				return err
			}
			dest += take
			nw -= take
		}
		return nil
	}
	if err := src.scan(route); err != nil {
		return children, err
	}
	// Queue the partial last block of every partition (zero-padded).
	for _, ch := range children {
		if ch.fill > 0 {
			clear(ch.buf[ch.fill:])
			if err := sc.Add(ch.stripe.BlockAddr(ch.blk), ch.buf); err != nil {
				return children, err
			}
		}
	}
	return children, sc.Flush()
}

// emit appends one segment (header + take data words pulled from ws) to a
// partition, handing full blocks to the scatter.
func (p *permuter) emit(ch *child, sc *stream.Scatter, dest, take int, ws *wordStream) error {
	if err := p.put(ch, sc, int64(dest)); err != nil {
		return err
	}
	if err := p.put(ch, sc, int64(take)); err != nil {
		return err
	}
	for take > 0 {
		room := p.b - ch.fill
		if room > take {
			room = take
		}
		if err := ws.copyN(ch.buf[ch.fill:ch.fill+room], room); err != nil {
			return err
		}
		ch.fill += room
		take -= room
		if err := p.full(ch, sc); err != nil {
			return err
		}
	}
	return nil
}

func (p *permuter) put(ch *child, sc *stream.Scatter, w int64) error {
	ch.buf[ch.fill] = w
	ch.fill++
	return p.full(ch, sc)
}

// full hands the partition's block to the scatter once it is full.
func (p *permuter) full(ch *child, sc *stream.Scatter) error {
	if ch.fill < p.b {
		return nil
	}
	ch.fill = 0
	ch.blk++
	return sc.Add(ch.stripe.BlockAddr(ch.blk-1), ch.buf)
}

// place is the base case: the whole destination range fits one memory
// chunk, so the node's segments are placed in an arena buffer and written
// out sequentially through the write-behind writer.
func (p *permuter) place(lo, hi int, src *nodeSource) error {
	buf, err := p.a.Arena().Alloc(hi - lo)
	if err != nil {
		src.free()
		return err
	}
	defer p.a.Arena().Free(buf)
	err = src.scan(func(dest, nw int, ws *wordStream) error {
		return ws.copyN(buf[dest-lo:dest-lo+nw], nw)
	})
	src.free()
	if err != nil {
		return err
	}
	addrs, err := p.out.AddrRange(lo, hi-lo)
	if err != nil {
		return err
	}
	return p.outw.WriteFlat(addrs, buf)
}

// nodeSource yields a node's segments in serialized order: either the root
// store (whose record boundaries live in the permuter's in-memory extent
// arrays) or a partition stripe written by a previous scatter level.
type nodeSource struct {
	p      *permuter
	store  *pdm.Stripe // root payload store, record metadata in p
	stripe *pdm.Stripe // serialized segment partition
	words  int         // exact serialized words in stripe
}

func (s *nodeSource) free() {
	if s.store != nil {
		s.store.Free()
		s.store = nil
	}
	if s.stripe != nil {
		s.stripe.Free()
		s.stripe = nil
	}
}

// scan streams the source and calls fn once per segment; fn must consume
// exactly nw words from ws.
func (s *nodeSource) scan(fn func(dest, nw int, ws *wordStream) error) error {
	p := s.p
	if s.store != nil {
		ws, err := newWordStream(p.a, s.store, p.padded)
		if err != nil {
			return err
		}
		defer ws.close()
		for i := 0; i < p.n; i++ {
			if p.wlen[i] == 0 {
				continue
			}
			if err := fn(p.destw[i], p.wlen[i], ws); err != nil {
				return err
			}
		}
		return nil
	}
	if s.stripe == nil || s.words == 0 {
		return nil
	}
	ws, err := newWordStream(p.a, s.stripe, memsort.CeilDiv(s.words, p.b)*p.b)
	if err != nil {
		return err
	}
	defer ws.close()
	consumed := 0
	for consumed < s.words {
		dest, err := ws.next()
		if err != nil {
			return err
		}
		nw, err := ws.next()
		if err != nil {
			return err
		}
		if nw <= 0 || consumed+headerWords+int(nw) > s.words {
			return fmt.Errorf("records: corrupt partition: segment of %d words at serialized offset %d of %d", nw, consumed, s.words)
		}
		if err := fn(int(dest), int(nw), ws); err != nil {
			return err
		}
		consumed += headerWords + int(nw)
	}
	return nil
}

// wordStream pulls a stripe's words sequentially through a prefetching
// stream.Reader, chunked at one stripe width.
type wordStream struct {
	a   *pdm.Array
	r   *stream.Reader
	buf []int64
	pos int
	n   int
	rem int // words not yet fetched from the reader
}

func newWordStream(a *pdm.Array, st *pdm.Stripe, paddedWords int) (*wordStream, error) {
	r, err := stream.NewStripeReader(st, 0, paddedWords, a.StripeWidth())
	if err != nil {
		return nil, err
	}
	buf, err := a.Arena().Alloc(a.StripeWidth())
	if err != nil {
		r.Close()
		return nil, err
	}
	return &wordStream{a: a, r: r, buf: buf, rem: paddedWords}, nil
}

func (ws *wordStream) fill() error {
	if ws.rem == 0 {
		return fmt.Errorf("records: read past the end of the segment stream")
	}
	n := len(ws.buf)
	if n > ws.rem {
		n = ws.rem
	}
	if err := ws.r.FillFlat(ws.buf[:n]); err != nil {
		return err
	}
	ws.pos, ws.n = 0, n
	ws.rem -= n
	return nil
}

func (ws *wordStream) next() (int64, error) {
	if ws.pos == ws.n {
		if err := ws.fill(); err != nil {
			return 0, err
		}
	}
	w := ws.buf[ws.pos]
	ws.pos++
	return w, nil
}

func (ws *wordStream) copyN(dst []int64, n int) error {
	for n > 0 {
		if ws.pos == ws.n {
			if err := ws.fill(); err != nil {
				return err
			}
		}
		take := ws.n - ws.pos
		if take > n {
			take = n
		}
		copy(dst[len(dst)-n:], ws.buf[ws.pos:ws.pos+take])
		ws.pos += take
		n -= take
	}
	return nil
}

func (ws *wordStream) close() {
	ws.r.Close()
	ws.a.Arena().Free(ws.buf)
}

// packWords encodes bytes little-endian into wordsFor(len(src)) words, the
// last one zero-padded: whole words at a time, bytes only for the tail.
// unpackWords is its inverse for a known byte length.
func packWords(dst []int64, src []byte) {
	full := len(src) / 8
	for w := 0; w < full; w++ {
		dst[w] = int64(binary.LittleEndian.Uint64(src[8*w:]))
	}
	if tail := src[8*full:]; len(tail) > 0 {
		var v uint64
		for k, c := range tail {
			v |= uint64(c) << (8 * k)
		}
		dst[full] = int64(v)
	}
}

func unpackWords(dst []byte, src []int64) {
	full := len(dst) / 8
	for w := 0; w < full; w++ {
		binary.LittleEndian.PutUint64(dst[8*w:], uint64(src[w]))
	}
	for k := 8 * full; k < len(dst); k++ {
		dst[k] = byte(uint64(src[full]) >> (8 * (k % 8)))
	}
}
