package repro

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/records"
)

// The full-record layer sorts (key, payload) records with the paper's
// word-sorting machinery: keys and original indices are packed into single
// int64 sort words, the words are sorted with the chosen algorithm, and
// the payload bytes are then moved into sorted order by an external
// distribution permutation (internal/records) whose I/O is charged in the
// same pass currency.
//
// packedSortBits is the usable width of a packed (key, index) sort word,
// the one constant the bound, the shift and the unpack mask derive from.
// 62 bits keep every packed value nonnegative and strictly below MaxInt64,
// the padding sentinel Sort reserves.
const packedSortBits = 62

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

// rounds returns how many packed digit rounds cover a full 64-bit key at
// this plan's digit width: the bound on a record sort's KeyRounds.
func (pp packPlan) rounds() int {
	return (64 + pp.keyBits - 1) / pp.keyBits
}

// SortRecords sorts full records — 64-bit keys with arbitrary byte
// payloads — by key, stably and in place: keys[i] pairs with payloads[i],
// and on return keys is sorted with payloads reordered to match (the
// payload bytes re-materialized from the simulated disks; the returned
// payloads may share one backing array, each capped at its own length).
// On error — including cancellation — both slices are left untouched,
// never with keys reordered away from their payloads.
//
// The run is a key+index sort followed by an external permutation.  One
// packed sort of (most significant key digit, index) words, a full PDM
// sort, orders the records; it is exact whenever the key span fits the
// packing's key bits (any keys within 2^32 of each other, negatives
// included).  Wider spans leave runs of tied digits: those already in key
// order stay, those of at most M records are re-sorted in memory, and
// only longer ones take another charged digit round over their own keys
// (Report.KeyRounds counts the rounds on the deepest path).
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
// keys is left untouched so a failure in the later permutation phase
// cannot strand the caller with keys reordered away from their payloads.
//
// One packed sort orders the records by their most significant key digit:
// the sign-biased key (the flip maps int64 order onto uint64 order) minus
// the smallest one, shifted right until the span fits the plan's key bits.
// Ties keep original order, because the packed index makes every sort
// word distinct.  When the span fits, the shift is 0 and the round is
// exact; keys already in [0, keyLimit) pack as themselves.  Otherwise only
// the runs of tied digits need more work (refineTies).
func (m *Machine) sortKeyIndex(keys []int64, alg Algorithm) ([]int, []int64, *Report, error) {
	n := len(keys)
	pp, err := planPacking(n)
	if err != nil {
		return nil, nil, nil, err
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, k := range keys {
		u := uint64(k) ^ 1<<63
		lo, hi = min(lo, u), max(hi, u)
	}
	if lo >= 1<<63 && hi-1<<63 < uint64(pp.keyLimit) {
		lo = 1 << 63
	}
	shift := max(0, bits.Len64(hi-lo)-pp.keyBits)
	pool := m.a.Pool()
	packed := make([]int64, n)
	pool.For(n, n, func(_, a, b int) {
		for i := a; i < b; i++ {
			packed[i] = int64(((uint64(keys[i])^1<<63)-lo)>>shift)<<pp.idxBits | int64(i)
		}
	})
	rep, err := m.Sort(packed, alg)
	if err != nil {
		return nil, nil, nil, err
	}
	rep.KeyRounds = 1
	perm := make([]int, n)
	// Unpack in place: packed doubles as the sorted-key result.
	pool.For(n, n, func(_, a, b int) {
		for j := a; j < b; j++ {
			perm[j] = int(packed[j] & pp.idxMask)
			packed[j] = keys[perm[j]]
		}
	})
	if shift > 0 {
		if err := m.refineTies(keys, perm, packed, lo, shift, alg, rep); err != nil {
			return nil, nil, nil, err
		}
	}
	return perm, packed, rep, nil
}

// refineTies finishes a digit round that dropped the low shift bits of the
// offset key (u − lo): perm and sorted are in digit order, and every run of
// equal digits holds its records in original order.  A run whose keys are
// already nondecreasing is final (equal keys are in index order).  A run
// of at most M records is stably sorted in host memory, uncharged like the
// packing itself.  A longer run recurses through sortKeyIndex, charged and
// folded into rep with its passes rescaled to rep's padded length: its key
// span is below 2^shift, so each level strips at least keyBits more bits
// and KeyRounds never exceeds packPlan.rounds().
func (m *Machine) refineTies(keys []int64, perm []int, sorted []int64, lo uint64, shift int, alg Algorithm, rep *Report) error {
	digit := func(k int64) uint64 { return ((uint64(k) ^ 1<<63) - lo) >> shift }
	for a := 0; a < len(perm); {
		b, d := a+1, digit(sorted[a])
		for b < len(perm) && digit(sorted[b]) == d {
			b++
		}
		run, runKeys := perm[a:b], sorted[a:b]
		a = b
		if slices.IsSorted(runKeys) {
			continue
		}
		if len(run) <= m.a.Mem() {
			slices.SortStableFunc(run, func(x, y int) int { return cmp.Compare(keys[x], keys[y]) })
			for j, i := range run {
				runKeys[j] = keys[i]
			}
			continue
		}
		subPerm, subSorted, subRep, err := m.sortKeyIndex(slices.Clone(runKeys), alg)
		if err != nil {
			return err
		}
		orig := slices.Clone(run)
		for j, s := range subPerm {
			run[j] = orig[s]
		}
		copy(runKeys, subSorted)
		scale := float64(subRep.PaddedN) / float64(rep.PaddedN)
		rep.Passes += subRep.Passes * scale
		rep.ReadPasses += subRep.ReadPasses * scale
		rep.WritePasses += subRep.WritePasses * scale
		rep.FellBack = rep.FellBack || subRep.FellBack
		rep.IO = rep.IO.Add(subRep.IO)
		rep.KeyRounds = max(rep.KeyRounds, 1+subRep.KeyRounds)
	}
	return nil
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
