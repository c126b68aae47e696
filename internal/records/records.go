package records

import (
	"fmt"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
	"repro/internal/wordview"
)

// headerWords is the serialized segment header: absolute destination word
// offset and word count.
const headerWords = 2

// Result reports one external permutation.
type Result struct {
	// Out is the caller's payloads slice itself, reordered in place: Out[j]
	// is the input payload order[j].
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
	Levels(padded, mem, b, func(nodes int) {
		// One level's partitions all live at once in the worst case: the
		// data, one header per resident segment (at most one per record
		// plus one per node boundary), and one row of rounding per node.
		env += words + headerWords*(n+nodes) + nodes*row
	})
	return env + row
}

// Levels returns the distribution depth of a permutation whose store pads
// to padded words on a machine with internal memory mem and blocks of b
// words, the level walk DiskEnvelope and plan.PermutePlan price, and calls
// level, if non-nil, with each level's node count.
func Levels(padded, mem, b int, level func(nodes int)) int {
	chunk, maxF := scatterGeometry(mem, b)
	levels := 0
	for span := memsort.CeilDiv(padded, chunk); span > 1; levels++ { // in chunks
		span = memsort.CeilDiv(span, min(span, maxF))
		if level != nil {
			level(memsort.CeilDiv(padded, span*chunk))
		}
	}
	return levels
}

// scatterGeometry resolves the distribution parameters: the destination
// chunk size (one internal memory's worth of words) and the scatter fanout
// (as many stream.Scatter carry blocks as fit in one memory).  With the
// Scatter's stage (a second memory load) and one stripe of read buffer a
// level holds 2·M + D·B, the arena's whole algorithm envelope.
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

	payloads [][]byte // the caller's, original order until the read-back
	// destw[i] is the destination word offset of record i (original index)
	// while the root store is scanned; the read-back reuses it for the
	// payload byte lengths in target order.
	destw []int

	// Per destination chunk k (words [k·chunk, (k+1)·chunk)): heads[k]
	// non-empty records start in it, and spans[k] straddle its first word
	// (start before it, end after it).  Every distribution node is a run of
	// whole chunks, so these size its partition (nodeWords).
	heads, spans []int

	words  int
	padded int

	// img is the payload store's little-endian word image, the only
	// payload-sized host buffer: loadStore fills it from the payloads,
	// readBack refills it from the output store, and the reordered payloads
	// are views into it (non-nil even when every payload is empty).
	img []int64

	out    *pdm.Stripe
	outw   *stream.Writer
	levels int
	fanout int
}

// Permute moves payloads into target order through the array's charged
// I/O and reorders the caller's slice to match: order[j] names the input
// record that lands at output position j, and on success payloads[j] is
// that record's payload, a capped view into one host buffer of
// PaddedWords words (Result.Out is payloads itself).  The payload store
// starts on disk (loaded uncharged, like every algorithm's input) and the
// permuted store is read back uncharged; everything in between — the
// scatter levels and the final placement — is charged through the normal
// accounting.  The views are written only after every transfer and the
// read-back have succeeded, so on error payloads is untouched.
//
// Besides the image, a call holds one word per record (destw) and two
// words per destination chunk on the host.
func Permute[I int | int64](a *pdm.Array, payloads [][]byte, order []I) (*Result, error) {
	p, err := newPermuter(a, payloads, order)
	if err != nil {
		return nil, err
	}
	var io pdm.Stats
	if p.words > 0 {
		store, err := p.loadStore()
		if err != nil {
			return nil, err
		}
		before := a.Stats()
		if err := p.runFrom(store); err != nil {
			return nil, err
		}
		io = a.Stats().Sub(before)
	}
	return finish(p, order, io)
}

// finish reads the permuted store back and reorders payloads into views of
// it.  The views overwrite payloads, which order indexes, so the lengths
// are taken in target order first, into destw, dead since the root scan.
func finish[I int | int64](p *permuter, order []I, io pdm.Stats) (*Result, error) {
	if err := p.readBack(); err != nil {
		return nil, err
	}
	for j, i := range order {
		p.destw[j] = len(p.payloads[i])
	}
	buf := wordview.Bytes(p.img)
	at := 0
	for j, nb := range p.destw {
		p.payloads[j] = buf[at : at+nb : at+nb]
		at += 8 * wordsFor(nb)
	}
	return p.result(io), nil
}

// newPermuter checks that order is a permutation of the records and lays
// out their destinations in one walk: destw starts all −1, so a record
// named twice is caught when its offset is already set.
func newPermuter[I int | int64](a *pdm.Array, payloads [][]byte, order []I) (*permuter, error) {
	n := len(payloads)
	if len(order) != n {
		return nil, fmt.Errorf("records: %d payloads but %d permutation entries", n, len(order))
	}
	p := &permuter{a: a, b: a.B(), payloads: payloads, words: PayloadWords(payloads)}
	p.chunk, p.maxF = scatterGeometry(a.Mem(), a.B())
	chunks := memsort.CeilDiv(p.words, p.chunk)
	p.heads, p.spans = make([]int, chunks), make([]int, chunks)
	p.destw = make([]int, n)
	for i := range p.destw {
		p.destw[i] = -1
	}
	off := 0
	for j, o := range order {
		i := int(o)
		if i < 0 || i >= n || p.destw[i] >= 0 {
			return nil, fmt.Errorf("records: order[%d] = %d is not a permutation of %d records", j, o, n)
		}
		p.destw[i] = off
		end := off + wordsFor(len(payloads[i]))
		if end > off {
			p.heads[off/p.chunk]++
			for k := off/p.chunk + 1; k*p.chunk < end; k++ {
				p.spans[k]++
			}
		}
		off = end
	}
	p.padded = memsort.CeilDiv(p.words, p.b) * p.b
	p.img = make([]int64, p.padded)
	return p, nil
}

// loadStore materializes the payload bytes as a word store on disk, in
// original record order, without charging I/O (the input's starting state).
// The store's format is the payloads' little-endian byte image, each record
// starting on a word boundary: byte k of a payload is bits 8·(k mod 8) … of
// its word k/8, and the last word and the block padding are zero.
func (p *permuter) loadStore() (*pdm.Stripe, error) {
	buf := wordview.Bytes(p.img)
	off := 0
	for _, pl := range p.payloads {
		copy(buf[8*off:], pl)
		off += wordsFor(len(pl))
	}
	wordview.LE(p.img)
	st, err := p.a.NewStripe(p.padded)
	if err != nil {
		return nil, err
	}
	if err := st.Load(p.img); err != nil {
		st.Free()
		return nil, err
	}
	return st, nil
}

func (p *permuter) result(io pdm.Stats) *Result {
	res := &Result{
		Out:         p.payloads,
		Words:       p.words,
		PaddedWords: p.padded,
		IO:          io,
		Levels:      p.levels,
		Fanout:      p.fanout,
	}
	if p.padded > 0 {
		res.Passes = float64(io.ReadSteps+io.WriteSteps) * float64(p.a.StripeWidth()) / float64(p.padded)
	}
	return res
}

// readBack reads the output store back into the word image, whose input
// contents are dead once the store is on disk.
func (p *permuter) readBack() error {
	if p.out == nil {
		return nil
	}
	err := p.out.UnloadInto(p.img)
	p.out.Free()
	p.out = nil
	if err != nil {
		return err
	}
	wordview.LE(p.img)
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
	blk    int // next block index within stripe
}

// nodeWords returns the exact serialized size of the partition holding
// every record piece destined for output words [lo, hi): the clipped data
// plus one header per resident segment.  lo is a chunk boundary and hi one
// too unless it is past the data, as for every node split walks, so the
// segments are the records straddling lo plus those starting in the
// node's chunks.
func (p *permuter) nodeWords(lo, hi int) int {
	if lo >= p.words {
		return 0
	}
	hi = min(hi, p.words)
	first := lo / p.chunk
	segs := p.spans[first]
	for _, h := range p.heads[first:memsort.CeilDiv(hi, p.chunk)] {
		segs += h
	}
	return hi - lo + headerWords*segs
}

// split returns the partitioning of a scatter over output words [lo, hi):
// f children of span words each (the last clipped at hi), span a whole
// number of chunks and f at most the fanout.
func (p *permuter) split(lo, hi int) (span, f int) {
	chunks := memsort.CeilDiv(hi-lo, p.chunk)
	span = memsort.CeilDiv(chunks, min(chunks, p.maxF)) * p.chunk
	// The span rounds up to whole chunks, so fewer children than the fanout
	// may be needed to cover the range.
	return span, memsort.CeilDiv(hi-lo, span)
}

// scatter reads src sequentially and routes every segment into one of the
// partitions covering [lo, hi), splitting segments at partition
// boundaries.  The partitions are the buckets of a stream.Scatter (one
// block per disk per step), each filling its stripe block by block; the
// partition stripes' skews are spread evenly round the disks, so
// partitions filling in step do not all queue on the same one.
func (p *permuter) scatter(lo, hi int, src *nodeSource) (children []*child, err error) {
	defer src.free()
	span, f := p.split(lo, hi)
	if p.fanout == 0 || f > p.fanout {
		p.fanout = f
	}
	for c := 0; c < f; c++ {
		clo := lo + c*span
		chi := min(clo+span, hi)
		words := p.nodeWords(clo, chi)
		ch := &child{lo: clo, hi: chi, words: words}
		if words > 0 {
			stripe, err := p.a.NewStripeSkew(memsort.CeilDiv(words, p.b)*p.b, c*max(1, p.a.D()/f))
			if err != nil {
				return children, err
			}
			ch.stripe = stripe
		}
		children = append(children, ch)
	}
	sc, err := stream.NewScatter(p.a, f, func(c, _ int) (pdm.BlockAddr, error) {
		ch := children[c]
		ch.blk++
		return ch.stripe.BlockAddr(ch.blk - 1), nil
	})
	if err != nil {
		return children, err
	}
	defer sc.Close()
	hdr := make([]int64, headerWords)
	err = src.scan(func(dest, nw int, ws *wordStream) error {
		for nw > 0 {
			c := (dest - lo) / span
			take := min(children[c].hi, dest+nw) - dest
			hdr[0], hdr[1] = int64(dest), int64(take)
			if err := sc.Append(c, hdr); err != nil {
				return err
			}
			if err := ws.each(take, func(v []int64) error { return sc.Append(c, v) }); err != nil {
				return err
			}
			dest += take
			nw -= take
		}
		return nil
	})
	if err != nil {
		return children, err
	}
	return children, sc.Flush()
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
		at := dest - lo
		return ws.each(nw, func(v []int64) error {
			at += copy(buf[at:], v)
			return nil
		})
	})
	src.free()
	if err != nil {
		return err
	}
	return p.outw.WriteStripe(p.out, lo, buf)
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
		for i, pl := range p.payloads {
			if len(pl) == 0 {
				continue
			}
			if err := fn(p.destw[i], wordsFor(len(pl)), ws); err != nil {
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

// each hands the stream's next n words to fn, as views into the stream's
// buffer valid only for the call.
func (ws *wordStream) each(n int, fn func([]int64) error) error {
	for n > 0 {
		if ws.pos == ws.n {
			if err := ws.fill(); err != nil {
				return err
			}
		}
		take := min(ws.n-ws.pos, n)
		if err := fn(ws.buf[ws.pos : ws.pos+take]); err != nil {
			return err
		}
		ws.pos += take
		n -= take
	}
	return nil
}

func (ws *wordStream) close() {
	ws.r.Close()
	ws.a.Arena().Free(ws.buf)
}
