package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/wordview"
)

// Page is one window of keys (and, on records pages, their payloads): what
// GET /jobs/{id}/keys and /records serve of a job's sorted output, and what
// POST /uploads/{id}/pages stages of a shard.  N is the full length, Offset
// where this window starts; Payloads is non-nil on records pages only.  It
// has two body encodings: JSON, the default (payloads base64), and
// PageContentType.
type Page struct {
	N        int      `json:"n"`
	Offset   int      `json:"offset"`
	Keys     []int64  `json:"keys"`
	Payloads [][]byte `json:"payloads,omitempty"`
}

// PageContentType names the binary page body, selected by plain content
// negotiation: a download answers in it when the request's Accept lists it,
// an upload may use it when the worker's /healthz carried it as
// Accept-Post.  Layout, all little-endian:
//
//	 0  magic "PDMP"      4  flags (bit 0: records page)
//	 8  n                16  offset               24  count
//	32  count int64 keys — 8-aligned, so a little-endian host moves them
//	    between the wire and a []int64 as one copy (internal/wordview)
//	    then, on records pages only, one (uvarint length, bytes) per payload
const PageContentType = "application/x-pdm-page"

var le = binary.LittleEndian

const (
	pageHeaderLen = 32
	pageMagic     = 0x504d4450 // "PDMP"
	pageRecords   = 1
)

// BinaryLen is the exact length of the body WriteBinary writes.
func (p Page) BinaryLen() int {
	n := pageHeaderLen + 8*len(p.Keys)
	for _, pl := range p.Payloads {
		n += (bits.Len(uint(len(pl))|1)+6)/7 + len(pl)
	}
	return n
}

// WriteBinary writes the page as a PageContentType body.
func (p Page) WriteBinary(w io.Writer) (err error) {
	write := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	var hdr [pageHeaderLen]byte
	le.PutUint32(hdr[0:], pageMagic)
	if p.Payloads != nil {
		le.PutUint32(hdr[4:], pageRecords)
	}
	le.PutUint64(hdr[8:], uint64(p.N))
	le.PutUint64(hdr[16:], uint64(p.Offset))
	le.PutUint64(hdr[24:], uint64(len(p.Keys)))
	write(hdr[:])
	keys := p.Keys
	if !wordview.Native {
		keys = slices.Clone(keys)
		wordview.LE(keys)
	}
	write(wordview.Bytes(keys))
	for _, pl := range p.Payloads {
		write(binary.AppendUvarint(hdr[:0], uint64(len(pl))))
		write(pl)
	}
	return err
}

// ReadPage decodes a PageContentType body from r.  size is its declared
// length (a Content-Length; the binary body does not travel chunked), and
// what the header claims is checked against it before anything is
// allocated, so a body cannot cost more memory than its own length.  Keys
// decode into dst when they fit, else into fresh storage.  Payloads are framed, not counted: decoding
// stops one past the key count, which is all the "k payloads for n keys"
// check the caller applies to a page of either encoding needs.
func ReadPage(r io.Reader, size int64, dst []int64) (Page, error) {
	var hdr [pageHeaderLen]byte
	if size < pageHeaderLen {
		return Page{}, fmt.Errorf("page body: declared length %d, the header alone is %d", size, pageHeaderLen)
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Page{}, err
	}
	flags, n, offset, count := le.Uint32(hdr[4:]), le.Uint64(hdr[8:]), le.Uint64(hdr[16:]), le.Uint64(hdr[24:])
	rest := uint64(size - pageHeaderLen)
	switch {
	case le.Uint32(hdr[0:]) != pageMagic:
		return Page{}, fmt.Errorf("page body: bad magic %#x", le.Uint32(hdr[0:]))
	case flags&^pageRecords != 0:
		return Page{}, fmt.Errorf("page body: unknown flags %#x", flags)
	case n > math.MaxInt || offset > n || count > n-offset:
		return Page{}, fmt.Errorf("page body: window [%d, +%d) outside n = %d", offset, count, n)
	case count > rest/8 || flags == 0 && count*8 != rest:
		return Page{}, fmt.Errorf("page body: %d keys claimed, %d bytes follow the header", count, rest)
	}
	p := Page{N: int(n), Offset: int(offset), Keys: dst}
	if dst == nil || count > uint64(len(dst)) {
		p.Keys = make([]int64, count) // never nil: JSON's "keys" is [] too
	}
	p.Keys = p.Keys[:count]
	if _, err := io.ReadFull(r, wordview.Bytes(p.Keys)); err != nil {
		return Page{}, err
	}
	wordview.LE(p.Keys)
	if flags == 0 {
		return p, nil
	}
	sec := make([]byte, rest-count*8)
	if _, err := io.ReadFull(r, sec); err != nil {
		return Page{}, err
	}
	p.Payloads = make([][]byte, 0, count)
	for len(sec) > 0 && uint64(len(p.Payloads)) <= count {
		l, k := binary.Uvarint(sec)
		if k <= 0 || l > uint64(len(sec)-k) {
			return Page{}, fmt.Errorf("page body: payload %d truncated", len(p.Payloads))
		}
		end := k + int(l)
		p.Payloads = append(p.Payloads, sec[k:end:end])
		sec = sec[end:]
	}
	return p, nil
}
