package records

import (
	"math/rand"
	"slices"
	"testing"
)

// packWordsRef is the byte-at-a-time definition of the payload store format
// — byte i of the payload is bits 8·(i mod 8) … of word i/8, the last word
// zero-padded — that the store loadStore writes must hold word for word.
func packWordsRef(dst []int64, src []byte) {
	for w := range dst {
		var v uint64
		for k := 0; k < 8; k++ {
			if i := w*8 + k; i < len(src) {
				v |= uint64(src[i]) << (8 * k)
			}
		}
		dst[w] = int64(v)
	}
}

// Every payload length 0..40, three records each, shuffled into one record
// set so short and empty records sit next to each other: the store on disk
// is packWordsRef record by record with zero block padding, and the
// permuted payloads come back byte-identical, each capped at its length.
func TestStoreFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var payloads [][]byte
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 3; trial++ {
			src := make([]byte, n)
			rng.Read(src)
			payloads = append(payloads, src)
		}
	}
	rng.Shuffle(len(payloads), func(i, j int) { payloads[i], payloads[j] = payloads[j], payloads[i] })

	a := newArray(t, 256, 4, 16)
	defer a.Close()
	perm := randPerm(len(payloads), 3)
	p, err := newPermuter(a, payloads, perm)
	if err != nil {
		t.Fatal(err)
	}
	store, err := p.loadStore()
	if err != nil {
		t.Fatal(err)
	}
	words, err := store.Unload()
	store.Free()
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, pl := range payloads {
		want := make([]int64, wordsFor(len(pl)))
		packWordsRef(want, pl)
		if got := words[off : off+len(want)]; !slices.Equal(got, want) {
			t.Fatalf("record %d (len %d) at word %d: store holds %x, want %x", i, len(pl), off, got, want)
		}
		off += len(want)
	}
	if pad := words[off:]; slices.ContainsFunc(pad, func(w int64) bool { return w != 0 }) {
		t.Fatalf("block padding after word %d is not zero: %x", off, pad)
	}

	out, _, err := permuteCopy(a, payloads, perm)
	if err != nil {
		t.Fatal(err)
	}
	checkPermuted(t, payloads, perm, out)
}
