package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encode is WriteBinary into a buffer, with BinaryLen checked on the way.
func encode(t testing.TB, p Page) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != p.BinaryLen() {
		t.Fatalf("BinaryLen = %d, WriteBinary wrote %d", p.BinaryLen(), buf.Len())
	}
	return buf.Bytes()
}

func decode(body []byte, dst []int64) (Page, error) {
	return ReadPage(bytes.NewReader(body), int64(len(body)), dst)
}

// samePage is equality up to what the binary body can carry: a payload of
// length 0 comes back empty, never nil (JSON keeps null apart from "").
func samePage(a, b Page) bool {
	if a.N != b.N || a.Offset != b.Offset || len(a.Keys) != len(b.Keys) ||
		(a.Payloads == nil) != (b.Payloads == nil) || len(a.Payloads) != len(b.Payloads) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	for i := range a.Payloads {
		if !bytes.Equal(a.Payloads[i], b.Payloads[i]) {
			return false
		}
	}
	return true
}

// TestPageRoundTrip: decode(encode(p)) == p over keys-only pages, records
// pages (including one with no records, nil and 0-length payloads, and a
// payload long enough for a multi-byte length), and the empty final page
// — into fresh storage and into a caller's buffer.
func TestPageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pages := []Page{
		{N: 0, Offset: 0, Keys: []int64{}},
		{N: 5, Offset: 5, Keys: []int64{}},                       // the empty final page
		{N: 5, Offset: 5, Keys: []int64{}, Payloads: [][]byte{}}, // … of a records job
		{N: 3, Offset: 0, Keys: []int64{-1 << 63, 0, 1<<63 - 1}},
		{N: 9, Offset: 4, Keys: []int64{7, 7, 8}, Payloads: [][]byte{nil, {}, []byte("x")}},
		{N: 1, Offset: 0, Keys: []int64{42}, Payloads: [][]byte{bytes.Repeat([]byte{0xab}, 300)}},
	}
	for i := 0; i < 50; i++ {
		p := Page{Keys: make([]int64, rng.Intn(40))}
		p.Offset = rng.Intn(100)
		p.N = p.Offset + len(p.Keys) + rng.Intn(100)
		for j := range p.Keys {
			p.Keys[j] = int64(rng.Uint64())
		}
		if i%2 == 1 {
			p.Payloads = make([][]byte, len(p.Keys))
			for j := range p.Payloads {
				p.Payloads[j] = make([]byte, rng.Intn(200))
				rng.Read(p.Payloads[j])
			}
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		body := encode(t, p)
		got, err := decode(body, nil)
		if err != nil || !samePage(got, p) {
			t.Fatalf("page %d: decoded %+v, %v; want %+v", i, got, err, p)
		}
		if got.Keys == nil {
			t.Fatalf("page %d: keys decoded nil; JSON's [] is empty, not null", i)
		}
		dst := make([]int64, len(p.Keys)+3)
		got, err = decode(body, dst)
		if err != nil || !samePage(got, p) {
			t.Fatalf("page %d into dst: decoded %+v, %v; want %+v", i, got, err, p)
		}
		if len(p.Keys) > 0 && &got.Keys[0] != &dst[0] {
			t.Fatalf("page %d: keys fit dst but were decoded elsewhere", i)
		}
		if got, err = decode(body, dst[:0]); err != nil || !samePage(got, p) {
			t.Fatalf("page %d past a short dst: decoded %+v, %v", i, got, err)
		}
		// Both codecs carry the same page (JSON's omitempty drops the
		// payloads of a records page with no records; binary's flag
		// keeps them).
		if p.Payloads != nil && len(p.Payloads) == 0 {
			continue
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON Page
		if err := json.Unmarshal(raw, &viaJSON); err != nil || !samePage(viaJSON, got) {
			t.Fatalf("page %d: JSON carries %+v, binary %+v", i, viaJSON, got)
		}
	}
}

// header builds a raw 32-byte header for the rejection tests.
func header(magic, flags uint32, n, offset, count uint64) []byte {
	b := make([]byte, pageHeaderLen)
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint32(b[4:], flags)
	binary.LittleEndian.PutUint64(b[8:], n)
	binary.LittleEndian.PutUint64(b[16:], offset)
	binary.LittleEndian.PutUint64(b[24:], count)
	return b
}

func TestReadPageRejects(t *testing.T) {
	keys := func(hdr []byte, ks ...int64) []byte {
		for _, k := range ks {
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(k))
		}
		return hdr
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"empty body", "header alone", nil},
		{"short header", "header alone", header(pageMagic, 0, 0, 0, 0)[:31]},
		{"bad magic", "bad magic", header(0x12345678, 0, 0, 0, 0)},
		{"unknown flags", "unknown flags", header(pageMagic, 2, 0, 0, 0)},
		{"offset past n", "outside n", header(pageMagic, 0, 4, 5, 0)},
		{"window past n", "outside n", keys(header(pageMagic, 0, 4, 3, 2), 1, 2)},
		{"n past int", "outside n", header(pageMagic, 0, 1<<63, 0, 0)},
		{"count past body", "keys claimed", header(pageMagic, 0, 1<<40, 0, 1<<40)},
		{"count overflowing ×8", "keys claimed", header(pageMagic, 0, 1<<62, 0, 1<<61)},
		{"truncated keys", "keys claimed", keys(header(pageMagic, 0, 2, 0, 2), 1)[:pageHeaderLen+12]},
		{"trailing bytes", "keys claimed", append(keys(header(pageMagic, 0, 1, 0, 1), 1), 0)},
		{"truncated payload", "payload 0 truncated", append(keys(header(pageMagic, pageRecords, 1, 0, 1), 1), 5, 'a', 'b')},
		{"truncated length", "payload 1 truncated", append(keys(header(pageMagic, pageRecords, 2, 0, 2), 1, 2), 0, 0x80)},
	} {
		if _, err := decode(tc.body, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// An undeclared length is not read to EOF.
	if _, err := ReadPage(bytes.NewReader(header(pageMagic, 0, 0, 0, 0)), -1, nil); err == nil {
		t.Error("ReadPage accepted an undeclared length")
	}
	// A declared length the reader cannot honour is the reader's error.
	if _, err := ReadPage(bytes.NewReader(header(pageMagic, 0, 1, 0, 1)), pageHeaderLen+8, nil); err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Errorf("short reader: got %v, want an EOF", err)
	}

	// Payloads are framed, not counted: a records page whose section holds
	// fewer or more payloads than keys decodes, so the one validation path
	// reports it the way it does for JSON — but never more than one past.
	one := append(keys(header(pageMagic, pageRecords, 2, 0, 2), 1, 2), 1, 'a')
	if p, err := decode(one, nil); err != nil || len(p.Payloads) != 1 {
		t.Errorf("1 payload for 2 keys: got %d payloads, %v", len(p.Payloads), err)
	}
	many := append(keys(header(pageMagic, pageRecords, 1, 0, 1), 1), make([]byte, 1000)...)
	if p, err := decode(many, nil); err != nil || len(p.Payloads) != 2 {
		t.Errorf("1000 payloads for 1 key: got %d payloads, %v; want decoding to stop at 2", len(p.Payloads), err)
	}
}

// TestReadPageBoundsAllocation: a 32-byte body claiming 2^40 keys is
// refused before anything is sized from the claim.
func TestReadPageBoundsAllocation(t *testing.T) {
	body := header(pageMagic, 0, 1<<40, 0, 1<<40)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decode(body, nil); err == nil {
			t.Fatal("accepted")
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode(body, nil) //nolint:errcheck // rejected above
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 || allocs > 8 {
		t.Fatalf("rejecting a 32-byte body cost %d bytes in %.0f allocations", grew, allocs)
	}
}

// FuzzDecodePage: ReadPage never panics, never allocates past the body it
// was given, and whatever it accepts re-encodes to a body that decodes to
// the same page.
func FuzzDecodePage(f *testing.F) {
	f.Add([]byte{})
	f.Add(header(pageMagic, 0, 0, 0, 0))
	f.Add(encode(f, Page{N: 3, Offset: 1, Keys: []int64{5, -6}}))
	f.Add(encode(f, Page{N: 2, Offset: 0, Keys: []int64{1, 2}, Payloads: [][]byte{[]byte("ab"), {}}}))
	f.Add(header(pageMagic, 0, 1<<40, 0, 1<<40))
	f.Add(header(pageMagic, 4, 0, 0, 0))
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := decode(body, nil)
		if err != nil {
			return
		}
		if p.Offset < 0 || p.Offset > p.N || len(p.Keys) > p.N-p.Offset {
			t.Fatalf("accepted window [%d, +%d) of %d", p.Offset, len(p.Keys), p.N)
		}
		if 8*len(p.Keys) > len(body) || len(p.Payloads) > len(p.Keys)+1 {
			t.Fatalf("%d-byte body decoded to %d keys, %d payloads", len(body), len(p.Keys), len(p.Payloads))
		}
		if p.Payloads == nil && len(body) != pageHeaderLen+8*len(p.Keys) {
			t.Fatalf("keys-only page accepted with trailing bytes")
		}
		if len(p.Payloads) != len(p.Keys) && p.Payloads != nil {
			return // the caller's payload-count check refuses this one
		}
		again, err := decode(encode(t, p), nil)
		if err != nil || !samePage(again, p) {
			t.Fatalf("re-encoded page decodes to %+v, %v; want %+v", again, err, p)
		}
	})
}

var pageSink Page

// BenchmarkPageCodec is the wire cost of one 16Ki-key page (the bench's
// page size) in each body: encode + decode, bytes on the wire as B/key.
func BenchmarkPageCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := Page{N: 1 << 20, Offset: 1 << 14, Keys: make([]int64, 1<<14)}
	for i := range p.Keys {
		p.Keys[i] = rng.Int63()
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, err := json.Marshal(p)
			if err != nil {
				b.Fatal(err)
			}
			pageSink = Page{}
			if err := json.Unmarshal(raw, &pageSink); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(raw))/float64(len(p.Keys)), "B/key")
		}
		b.SetBytes(int64(8 * len(p.Keys)))
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]int64, len(p.Keys))
		buf := bytes.NewBuffer(make([]byte, 0, p.BinaryLen()))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := p.WriteBinary(buf); err != nil {
				b.Fatal(err)
			}
			var err error
			if pageSink, err = ReadPage(bytes.NewReader(buf.Bytes()), int64(buf.Len()), dst); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(buf.Len())/float64(len(p.Keys)), "B/key")
		}
		b.SetBytes(int64(8 * len(p.Keys)))
	})
	if !reflect.DeepEqual(pageSink.Keys, p.Keys) {
		b.Fatal("codec lost keys")
	}
}
