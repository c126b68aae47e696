package memsort

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// blocksShapes are the key shapes RadixBlocks has to get right: the span
// the bench sorts, the whole word, heavy duplicates, clusters, a skew, the
// degenerate orders, and the facade's MaxInt64 padding (whose span is the
// whole word while the real keys span 41 bits).
var blocksShapes = []string{
	"uniform", "full64", "dup7", "clustered", "zipf", "presorted", "all-equal", "max-padded",
}

// blocksKeys returns n keys of the given shape.
func blocksKeys(shape string, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int64, n)
	switch shape {
	case "uniform", "max-padded", "presorted":
		for i := range a {
			a[i] = rng.Int63n(1<<41+1) - 1<<40
		}
		if shape == "max-padded" {
			for i := n - n/16; i < n; i++ {
				a[i] = math.MaxInt64
			}
			rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		}
		if shape == "presorted" {
			slices.Sort(a)
		}
	case "full64":
		for i := range a {
			a[i] = int64(rng.Uint64())
		}
	case "dup7":
		for i := range a {
			a[i] = rng.Int63n(7) - 3
		}
	case "clustered": // a few tight clusters far apart
		for i := range a {
			a[i] = rng.Int63n(5)<<50 + rng.Int63n(100)
		}
	case "zipf":
		z := rand.NewZipf(rng, 1.2, 1, 1<<30)
		for i := range a {
			a[i] = int64(z.Uint64())
		}
	case "all-equal":
		for i := range a {
			a[i] = -9
		}
	default:
		panic("unknown shape " + shape)
	}
	return a
}

// checkBlocks asserts that got is a block-exact arrangement of the sorted
// want at (blk, phase): sorting each block — [0, p0), then blk keys at a
// time from the first boundary p0 — gives the matching slice of want.
func checkBlocks(t *testing.T, name string, got, want []int64, blk, phase int) {
	t.Helper()
	s := 0
	for e := blk - phase%blk; s < len(got); e += blk {
		e = min(e, len(got))
		b := slices.Clone(got[s:e])
		slices.Sort(b)
		if !slices.Equal(b, want[s:e]) {
			t.Fatalf("%s: block [%d, %d) does not hold the sorted keys of its ranks", name, s, e)
		}
		s = e
	}
}

// TestRadixBlocksOracle is the kernel's oracle test: over every key shape,
// blk ∈ {16, 64, 256} and sizes up to 64Ki, sorting each block of the
// output gives the matching slice of slices.Sort's output, and the scratch
// past the load comes back untouched.  Phase 0 goes through RadixBlocks;
// phases 1, 37 and blk−1, the offsets a refined bucket starts at, through
// radixBlocks.
func TestRadixBlocksOracle(t *testing.T) {
	const sentinel = 0x5a5a5a5a5a5a5a5a
	for _, shape := range blocksShapes {
		for _, n := range []int{0, 1, 100, RadixMinKeys - 1, RadixMinKeys, 1000, 4096, 1<<14 + 3, 1 << 16} {
			src := blocksKeys(shape, n, int64(n)+7)
			want := slices.Clone(src)
			slices.Sort(want)
			a := make([]int64, n)
			scratch := make([]int64, n+4)
			for _, blk := range []int{16, 64, 256} {
				for _, phase := range []int{0, 1, 37, blk - 1} {
					copy(a, src)
					for i := range scratch {
						scratch[i] = sentinel
					}
					if phase == 0 {
						RadixBlocks(a, scratch, blk)
					} else {
						radixBlocks(a, scratch, blk, phase%blk)
					}
					name := fmt.Sprintf("%s/n=%d/blk=%d/phase=%d", shape, n, blk, phase)
					checkBlocks(t, name, a, want, blk, phase)
					for _, v := range scratch[n:] {
						if v != sentinel {
							t.Fatalf("%s: scratch past the load written", name)
						}
					}
				}
			}
		}
	}
}

// FuzzRadixBlocks checks RadixBlocks against the slices.Sort oracle on
// loads the fuzzer shapes: the bytes RadixKeys' fuzz target reads (n, span
// width, stride, span low end, seed; see FuzzRadixKeys), then byte 20 the
// block size (1–256) and byte 21 the phase, which reaches the unexported
// radixBlocks the way a refined bucket does (RadixBlocks itself is phase
// 0).  Scratch is one word longer than the load, and that word must come
// back untouched.
func FuzzRadixBlocks(f *testing.F) {
	f.Add([]byte("\x00\x10\x29\x00\x00\x00\x00\x00\x00\xff\xff\xff\x07\x00\x00\x00\x00\x00\x00\x00\xff\x25"))
	f.Add([]byte("\x00\x40\x40\x00\x00\x00\x00\x00\x00\x00\x00\x80\x01\x00\x00\x00\x00\x00\x00\x00\x0f\x00"))
	f.Add([]byte("\xb8\x0b\x02\x00\x39\x30\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x3f\x3e"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 22 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % (1<<14 + 1)
		width, stride := uint(data[2]%65), uint(data[3]%64)
		lo := int64(binary.LittleEndian.Uint64(data[4:]))
		blk := int(data[20]) + 1
		phase := int(data[21])
		a := make([]int64, n)
		spanKeys(a, lo, width, stride, binary.LittleEndian.Uint64(data[12:]))
		want := slices.Clone(a)
		slices.Sort(want)
		scratch := make([]int64, n+1)
		scratch[n] = 12345
		if phase%blk == 0 {
			RadixBlocks(a, scratch, blk)
		} else {
			radixBlocks(a, scratch, blk, phase%blk)
		}
		checkBlocks(t, fmt.Sprintf("n=%d width=%d stride=%d lo=%d blk=%d phase=%d", n, width, stride, lo, blk, phase),
			a, want, blk, phase)
		if scratch[n] != 12345 {
			t.Fatalf("n=%d: scratch word past the load written", n)
		}
	})
}
