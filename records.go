package repro

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/records"
)

// The full-record layer sorts (key, payload) records with the paper's
// word-sorting machinery: keys and original indices are packed into single
// int64 sort words, the words are sorted with the chosen algorithm, and
// the payload bytes are then moved into sorted order by an external
// distribution permutation (internal/records) whose I/O is charged in the
// same pass currency.
//
// Every packing constant below derives from packedSortBits so the bound,
// the shift, and the unpack mask cannot drift apart.
const (
	// packedSortBits is the usable width of a packed (key, index) sort
	// word.  62 bits keep every packed value nonnegative and strictly
	// below MaxInt64, the padding sentinel Sort reserves.
	packedSortBits = 62

	// pairKeyBits and pairIdxBits describe SortPairs' legacy contract —
	// 32-bit keys, the paper's Section 7 "practical keys" observation —
	// now just one instance of the general packing: with 2^30 records the
	// planner derives exactly this split.
	pairKeyBits = 32
	pairIdxBits = packedSortBits - pairKeyBits

	// maxPairRecords is SortPairs' record bound, inclusive: indices
	// 0..2^30−1 fit the 30-bit index field, so exactly 2^30 records pack.
	maxPairRecords = 1 << pairIdxBits
)

// packPlan resolves the packing for n records: how many low bits index a
// record and how many high bits remain for a key digit per sort round.
type packPlan struct {
	idxBits  int   // low bits holding the original index
	keyBits  int   // high bits holding the key (or key digit)
	idxMask  int64 // 1<<idxBits − 1, the unpack mask
	keyLimit int64 // 1<<keyBits, the largest+1 key a single round packs
}

// planPacking derives the packing from the record count alone.  It errors
// when n leaves fewer than one key bit (≥ 2^61 records — far beyond any
// in-memory input, but the bound is derived, not assumed).
func planPacking(n int) (packPlan, error) {
	idxBits := 0
	if n > 1 {
		idxBits = bits.Len64(uint64(n - 1))
	}
	keyBits := packedSortBits - idxBits
	if keyBits < 1 {
		return packPlan{}, fmt.Errorf("repro: %d records leave no key bits in a %d-bit packed word", n, packedSortBits)
	}
	return packPlan{
		idxBits:  idxBits,
		keyBits:  keyBits,
		idxMask:  int64(1)<<idxBits - 1,
		keyLimit: int64(1) << keyBits,
	}, nil
}

// rounds returns how many packed sort rounds cover a full 64-bit key at
// this plan's digit width (1 when keys fit a single round).
func (pp packPlan) rounds() int {
	return (64 + pp.keyBits - 1) / pp.keyBits
}

// SortRecords sorts full records — 64-bit keys with arbitrary byte
// payloads — by key, stably and in place: keys[i] pairs with payloads[i],
// and on return keys is sorted with payloads reordered to match (the
// payload bytes re-materialized from the simulated disks).  On error —
// including cancellation — both slices are left untouched, never with
// keys reordered away from their payloads.
//
// The run is a key+index sort followed by an external permutation.  When
// every key is nonnegative and fits the packing's key bits (the common
// case: any key below 2^32 always fits), one packed sort orders the
// records; otherwise — keys needing all 64 bits, including negatives — the
// layer runs LSD rounds of packed digit sorts (Report.KeyRounds), each a
// full PDM sort, which is the (key, idx) pair representation in the model.
// The payloads then move through internal/records' distribution
// permutation, charged via the normal accounting: Report.IO covers both
// phases, and Report.PermutePasses prices the payload movement in passes
// over the payload store.
//
// There is no record-count or key-width cap beyond the machine's own
// sorting capacity; payload widths may vary per record, including zero.
func (m *Machine) SortRecords(keys []int64, payloads [][]byte, alg Algorithm) (*Report, error) {
	if len(keys) != len(payloads) {
		return nil, fmt.Errorf("repro: %d keys but %d payloads", len(keys), len(payloads))
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("repro: no records to sort")
	}
	perm, sorted, rep, err := m.sortKeyIndex(keys, alg)
	if err != nil {
		return nil, err
	}
	before := m.a.Stats()
	res, err := records.Permute(m.a, payloads, perm)
	if err != nil {
		// keys and payloads are untouched: a failed run (cancellation, a
		// disk fault) must not leave the caller with keys permuted away
		// from their payloads.
		return nil, err
	}
	copy(keys, sorted)
	for j := range payloads {
		payloads[j] = res.Out[j]
	}
	rep.IO = rep.IO.Add(m.a.Stats().Sub(before))
	rep.PayloadWords = res.Words
	rep.PermutePasses = res.Passes
	rep.Observe(rep.IO, m.a.Workers())
	return rep, nil
}

// sortKeyIndex computes the stable key order without touching keys: it
// returns the permutation realizing the order (perm[j] is the original
// index of the record at sorted position j) and the sorted key values.
// Ties keep original order (stability), because the packed index makes
// every sort word distinct.  keys is left untouched so a failure in the
// later permutation phase cannot strand the caller with keys reordered
// away from their payloads.
func (m *Machine) sortKeyIndex(keys []int64, alg Algorithm) ([]int, []int64, *Report, error) {
	n := len(keys)
	pp, err := planPacking(n)
	if err != nil {
		return nil, nil, nil, err
	}
	pool := m.a.Pool()
	// Fused scan: does every key fit one packed round?  Parallel workers
	// report the lowest out-of-range index only to decide the path.
	narrow := atomic.Bool{}
	narrow.Store(true)
	pool.For(n, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if keys[i] < 0 || keys[i] >= pp.keyLimit {
				narrow.Store(false)
				return
			}
		}
	})
	packed := make([]int64, n)
	if narrow.Load() {
		pool.For(n, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				packed[i] = keys[i]<<pp.idxBits | int64(i)
			}
		})
		rep, err := m.Sort(packed, alg)
		if err != nil {
			return nil, nil, nil, err
		}
		rep.KeyRounds = 1
		perm := make([]int, n)
		// Unpack in place: packed doubles as the sorted-key result.
		pool.For(n, n, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				p := packed[j]
				perm[j] = int(p & pp.idxMask)
				packed[j] = p >> pp.idxBits
			}
		})
		return perm, packed, rep, nil
	}
	return m.sortKeyIndexWide(keys, alg, pp, packed)
}

// sortKeyIndexWide handles keys that need all 64 bits (including
// negatives) with LSD rounds over the sign-biased key: round r sorts
// (digit_r, current position) packed words, and because the position is
// the tiebreak, each round is a stable refinement — after the last round
// the order is fully sorted by key with original-index ties.
func (m *Machine) sortKeyIndexWide(keys []int64, alg Algorithm, pp packPlan, packed []int64) ([]int, []int64, *Report, error) {
	n := len(keys)
	pool := m.a.Pool()
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	next := make([]int, n)
	digitMask := uint64(pp.keyLimit - 1)
	var total *Report
	for r := 0; r < pp.rounds(); r++ {
		shift := uint(r * pp.keyBits)
		pool.For(n, n, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				// The sign-bit flip maps int64 order onto uint64 order.
				u := uint64(keys[order[j]]) ^ (1 << 63)
				digit := (u >> shift) & digitMask
				packed[j] = int64(digit)<<pp.idxBits | int64(j)
			}
		})
		rep, err := m.Sort(packed, alg)
		if err != nil {
			return nil, nil, nil, err
		}
		pool.For(n, n, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				next[j] = order[int(packed[j]&pp.idxMask)]
			}
		})
		order, next = next, order
		if total == nil {
			total = rep
		} else {
			total.Passes += rep.Passes
			total.ReadPasses += rep.ReadPasses
			total.WritePasses += rep.WritePasses
			total.FellBack = total.FellBack || rep.FellBack
			total.IO = total.IO.Add(rep.IO)
			total.Algorithm = rep.Algorithm
		}
	}
	total.KeyRounds = pp.rounds()
	// packed is free after the last round; reuse it for the sorted values.
	pool.For(n, n, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			packed[j] = keys[order[j]]
		}
	})
	return order, packed, total, nil
}

// pairCountOK reports whether n records fit SortPairs' legacy packing:
// the bound is inclusive, since n records use indices 0..n−1 and exactly
// 2^pairIdxBits of them fit the index field.
func pairCountOK(n int) bool { return n <= maxPairRecords }

// SortPairs sorts records (keys[i], payloads[i]) by key, in place and
// stably.  It is a thin compatibility wrapper over SortRecords that keeps
// the original narrow contract — keys in [0, 2^32), at most 2^30 records,
// single-word payloads — matching the paper's Section 7 observation that
// practical keys ("weather data, market data", social-security numbers)
// are at most 32 bits.  For wider keys, more records, or byte payloads,
// call SortRecords directly.
func (m *Machine) SortPairs(keys, payloads []int64, alg Algorithm) (*Report, error) {
	if len(keys) != len(payloads) {
		return nil, fmt.Errorf("repro: %d keys but %d payloads", len(keys), len(payloads))
	}
	if !pairCountOK(len(keys)) {
		return nil, fmt.Errorf("repro: %d records exceed the 2^%d packing limit", len(keys), pairIdxBits)
	}
	for i, k := range keys {
		if k < 0 || k >= 1<<pairKeyBits {
			return nil, fmt.Errorf("repro: key %d at index %d outside [0, 2^%d)", k, i, pairKeyBits)
		}
	}
	return m.sortWordRecords(keys, payloads, alg)
}

// sortWordRecords is SortRecords for single-word payloads: each int64
// rides as an 8-byte record payload and is read back in sorted order.  Both
// slices are sorted in place; on error both are left untouched.
func (m *Machine) sortWordRecords(keys, payloads []int64, alg Algorithm) (*Report, error) {
	raw := make([]byte, 8*len(payloads))
	blobs := make([][]byte, len(payloads))
	for i, p := range payloads {
		b := raw[8*i : 8*i+8]
		binary.LittleEndian.PutUint64(b, uint64(p))
		blobs[i] = b
	}
	rep, err := m.SortRecords(keys, blobs, alg)
	if err != nil {
		return nil, err
	}
	for i := range payloads {
		payloads[i] = int64(binary.LittleEndian.Uint64(blobs[i]))
	}
	return rep, nil
}
