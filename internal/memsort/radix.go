package memsort

import (
	"math"
	"math/bits"
	"slices"
)

// LSD radix sort for int64 keys — the Radix compute kernel behind
// par.Pool.SortKeys.  The comparison introsort in memsort.go moves every key
// O(log n) times with a data-dependent branch per comparison; the radix kernel
// moves every key once per digit of the load's key span and never branches on
// key values, which is why it wins on uniform random keys at memory-load sizes
// (see BenchmarkKernelSort*).  Keys in [lo, hi] sort as the offsets v − c for
// any c ≤ lo, which need about bits.Len64(hi − lo) bits: [−2^40, 2^40] takes
// five 9-bit passes, not eight byte passes of the sign-flipped word.

// RadixMinKeys is the size below which RadixKeys falls back to the comparison
// introsort: with fewer keys the fixed cost of the counting pass and the
// bucket tables dominates (BenchmarkKernelSort{Intro,Radix} bracket it at
// 128 and 256 keys).  It is the one size threshold of the in-memory sort:
// internal/par borrows scratch only for loads and merge tails at or above
// it.
const RadixMinKeys = 256

// radixPos holds the digit boundaries: digit i is bits [radixPos[i],
// radixPos[i+1]).  Nine bits beat bytes and 11 bits per key moved
// (BenchmarkKernelSortRadix); the top digit is 10 so that seven cover a word.
var radixPos = [...]uint{0, 9, 18, 27, 36, 45, 54, 64}

// RadixKeys sorts a in place with an LSD radix sort, using scratch (which must
// be at least len(a) long) as the ping-pong buffer.  Only the digits that the
// offsets from the load's minimum occupy are scattered, and a digit on which
// every key agrees is skipped.
func RadixKeys(a, scratch []int64) {
	n := len(a)
	if n < RadixMinKeys || n > math.MaxUint32 { // counts are uint32
		Keys(a)
		return
	}
	if len(scratch) < n {
		panic("memsort: RadixKeys scratch too small")
	}
	// One read pass takes lo, hi and every digit's histogram of the raw word
	// (at hist[i<<9:]), with constant shifts and masks.
	var hist [6<<9 + 1<<10]uint32
	lo, hi := a[0], a[0]
	for _, v := range a {
		lo, hi = min(lo, v), max(hi, v)
		u := uint64(v)
		hist[u&0x1ff]++
		hist[1<<9|u>>9&0x1ff]++
		hist[2<<9|u>>18&0x1ff]++
		hist[3<<9|u>>27&0x1ff]++
		hist[4<<9|u>>36&0x1ff]++
		hist[5<<9|u>>45&0x1ff]++
		hist[6<<9|u>>54&0x3ff]++
	}
	width := uint(bits.Len64(uint64(hi - lo)))
	if width == 0 {
		return
	}
	// p digits hold the span and a bit more, which absorbs clearing c's bits
	// below its top digit.  The lower digits of v − c are then those of v, and
	// the top one's histogram is the word's rotated left by c's top digit.
	p := 1
	for p < len(radixPos)-1 && radixPos[p] <= width {
		p++
	}
	c := lo &^ (1<<radixPos[p-1] - 1)
	top := hist[(p-1)<<9:][:1<<(radixPos[p]-radixPos[p-1])]
	if rot := uint64(c) >> radixPos[p-1] & uint64(len(top)-1); rot != 0 {
		slices.Reverse(top[:rot])
		slices.Reverse(top[rot:])
		slices.Reverse(top)
	}
	src, dst := a, scratch[:n]
	for i := range p {
		// &63 drops the compiler's oversized-shift fix-up, whose SBB chained
		// each key to the previous key's table load: half the loop's speed.
		shift, mask := radixPos[i]&63, uint64(1)<<(radixPos[i+1]-radixPos[i])-1
		h := hist[i<<9:][:min(mask, uint64(hi-c)>>shift)+1] // the top digit stops at hi
		if radixStarts(h, n) {
			continue
		}
		for _, v := range src {
			k := uint64(v-c) >> shift & mask
			dst[h[k]] = v
			h[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// radixStarts turns histogram h into bucket starts in place, or reports that
// every key is in one bucket, which makes the pass an identity.  Inlined into
// RadixKeys, its sum and index would be spilled to the stack.
//
//go:noinline
func radixStarts(h []uint32, n int) bool {
	sum := uint32(0)
	for j, x := range h {
		if x == uint32(n) {
			return true
		}
		h[j] = sum
		sum += x
	}
	return false
}
