package memsort

import (
	"math"
	"math/bits"
)

// blocksDigit is RadixBlocks' digit width: 2^11 buckets per level, enough to
// leave only a few keys beside each block boundary of a memory load.
const blocksDigit = 11

// RadixBlocks arranges a block-exactly, using scratch (at least len(a) long
// once len(a) ≥ RadixMinKeys) as the scatter buffer: for every boundary p
// with 0 < p < len(a) and p % blk == 0, max(a[:p]) ≤ min(a[p:]).  Every
// aligned blk-key block then holds exactly the keys a sort would put there,
// in unspecified order — all a consumer that re-sorts each block needs.
// blk must be positive.
//
// It is an MSD radix pass that stops as soon as no bucket straddles a
// boundary: one min/max sweep, then one count and one scatter on the top
// 11-bit digit of the load's own key span.  Only the buckets a boundary
// cuts are refined, each on its own span — so a load padded with MaxInt64
// sentinels, whose span is the whole word, still splits its real keys on
// their span one level down.  Buckets under RadixMinKeys keys are
// partitioned at their boundaries by Select, and a bucket of equal keys is
// done.  On uniform keys that is
// one scatter plus a few short partitions beside the boundaries, against
// RadixKeys' one scatter per digit of the span.
func RadixBlocks(a, scratch []int64, blk int) {
	if blk <= 0 {
		panic("memsort: RadixBlocks needs blk > 0")
	}
	if len(a) > math.MaxUint32 { // counts are uint32
		Keys(a)
		return
	}
	if len(a) >= RadixMinKeys && len(scratch) < len(a) {
		panic("memsort: RadixBlocks scratch too small")
	}
	radixBlocks(a, scratch, blk, 0)
}

// radixBlocks is RadixBlocks on a sub-load whose first boundary lies
// blk − phase keys in (0 ≤ phase < blk): a bucket that a refinement level
// hands down starts wherever the level's scatter put it.
func radixBlocks(a, scratch []int64, blk, phase int) {
	switch {
	case blk-phase >= len(a): // the first boundary is not inside a
	case len(a) < RadixMinKeys:
		// Only the order across each boundary matters: partition at
		// every one, each Select in what the one before left above it.
		for lo, p := 0, blk-phase; p < len(a); lo, p = p, p+blk {
			Select(a[lo:], p-lo)
		}
	default:
		radixBlocksLevel(a, scratch, blk, phase)
	}
}

// radixBlocksLevel is one MSD level of radixBlocks on a load with a
// boundary inside and at least RadixMinKeys keys.
func radixBlocksLevel(a, scratch []int64, blk, phase int) {
	lo, hi := a[0], a[0]
	for _, v := range a {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi - lo)
	if span == 0 {
		return
	}
	shift := uint(max(bits.Len64(span), blocksDigit)-blocksDigit) & 63
	var count [1 << blocksDigit]uint32
	h := count[:span>>shift+1]
	for _, v := range a {
		h[uint64(v-lo)>>shift]++
	}
	sum := uint32(0)
	for j, c := range h {
		h[j] = sum
		sum += c
	}
	dst := scratch[:len(a)]
	for _, v := range a {
		k := uint64(v-lo) >> shift
		dst[h[k]] = v
		h[k]++
	}
	copy(a, dst)
	if shift == 0 { // every bucket holds one key value
		return
	}
	// h[j] is now the end of bucket j.  q walks the boundaries: it is the
	// first one past the current bucket's start s, so the bucket [s, e)
	// straddles one exactly when q < e.
	s, q := 0, blk-phase
	for _, c := range h {
		e := int(c)
		if q < e {
			radixBlocks(a[s:e], scratch[s:e], blk, (s+phase)%blk)
		}
		if q <= e {
			q += (e-q)/blk*blk + blk
		}
		s = e
	}
}
