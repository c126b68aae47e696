package records

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// packWordsRef is the byte-at-a-time definition of the payload word format
// — byte i of the payload is bits 8·(i mod 8) … of word i/8, the last word
// zero-padded — that packWords must reproduce word for word.
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

func TestPackWordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 8; trial++ {
			src := make([]byte, n)
			rng.Read(src)
			want := make([]int64, wordsFor(n))
			packWordsRef(want, src)
			got := make([]int64, wordsFor(n))
			for i := range got {
				got[i] = -1 // stale staging: the tail word must still come out zero-padded
			}
			packWords(got, src)
			if !slices.Equal(got, want) {
				t.Fatalf("len %d: packWords(%x) = %x, want %x", n, src, got, want)
			}
			back := make([]byte, n)
			unpackWords(back, got)
			if !bytes.Equal(back, src) {
				t.Fatalf("len %d: unpackWords(packWords(%x)) = %x", n, src, back)
			}
		}
	}
}

// The payload codec runs serially on SortRecords' critical path, once per
// direction over the whole payload volume; 64 bytes is records-file's record.
func benchCodec(b *testing.B, payloadBytes int, unpack bool) {
	const n = 1 << 14
	src := make([]byte, n*payloadBytes)
	rand.New(rand.NewSource(1)).Read(src)
	wl := wordsFor(payloadBytes)
	words := make([]int64, n*wl)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			pl, ws := src[r*payloadBytes:(r+1)*payloadBytes], words[r*wl:(r+1)*wl]
			if unpack {
				unpackWords(pl, ws)
			} else {
				packWords(ws, pl)
			}
		}
	}
}

func BenchmarkPackWords(b *testing.B) {
	b.Run("64B", func(b *testing.B) { benchCodec(b, 64, false) })
	b.Run("21B", func(b *testing.B) { benchCodec(b, 21, false) })
}

func BenchmarkUnpackWords(b *testing.B) {
	b.Run("64B", func(b *testing.B) { benchCodec(b, 64, true) })
	b.Run("21B", func(b *testing.B) { benchCodec(b, 21, true) })
}
