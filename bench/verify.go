package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Every op's output is checked against an oracle computed from the input
// at set-up, outside the timed region.

// mix64 is the splitmix64 finalizer: a cheap bijective hash, used so the
// multiset fingerprint is not fooled by two keys changed in compensating
// ways (which a plain sum and xor would be).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keyChecksum fingerprints a multiset of keys independently of order.
type keyChecksum struct {
	n             int
	sum, xor, mix uint64
}

func checksumKeys(keys []int64) keyChecksum {
	c := keyChecksum{n: len(keys)}
	for _, k := range keys {
		u := uint64(k)
		c.sum += u
		c.xor ^= u
		c.mix += mix64(u)
	}
	return c
}

// verifySorted accepts out iff it is ascending and the same multiset the
// oracle fingerprinted.
func verifySorted(out []int64, want keyChecksum) error {
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("verify: out[%d] = %d > out[%d] = %d", i-1, out[i-1], i, out[i])
		}
	}
	if got := checksumKeys(out); got != want {
		return fmt.Errorf("verify: output is not a permutation of the input (got %d keys, want %d)", got.n, want.n)
	}
	return nil
}

// verifyEqual accepts out iff it equals the oracle exactly (top-K prefixes
// and paged service output).
func verifyEqual(out, want []int64) error {
	if len(out) != len(want) {
		return fmt.Errorf("verify: got %d keys, want %d", len(out), len(want))
	}
	for i := range out {
		if out[i] != want[i] {
			return fmt.Errorf("verify: out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	return nil
}

// verifyRecords checks a stable record sort.  Every payload the bench
// generates starts with its record's original index, so each output record
// names the input record it claims to be: it must carry that record's key
// and exact payload bytes, keys must ascend, and among equal keys the
// original indices must ascend (stability).  Strictly ascending indices
// within a key run also make the indices distinct, so with n outputs the
// mapping is a bijection — the output is exactly the input multiset.
func verifyRecords(outKeys []int64, outPayloads [][]byte, inKeys []int64, inPayloads [][]byte) error {
	n := len(inKeys)
	if len(outKeys) != n || len(outPayloads) != n {
		return fmt.Errorf("verify: got %d keys and %d payloads, want %d", len(outKeys), len(outPayloads), n)
	}
	prevIdx := -1
	for j, k := range outKeys {
		p := outPayloads[j]
		if len(p) < 8 {
			return fmt.Errorf("verify: record %d has a %d-byte payload", j, len(p))
		}
		idx := int(binary.LittleEndian.Uint64(p))
		if idx < 0 || idx >= n {
			return fmt.Errorf("verify: record %d names input record %d of %d", j, idx, n)
		}
		if inKeys[idx] != k || !bytes.Equal(inPayloads[idx], p) {
			return fmt.Errorf("verify: record %d does not match input record %d", j, idx)
		}
		if j > 0 {
			switch {
			case outKeys[j-1] > k:
				return fmt.Errorf("verify: keys not ascending at record %d", j)
			case outKeys[j-1] == k && idx <= prevIdx:
				return fmt.Errorf("verify: equal keys out of input order at record %d (unstable)", j)
			}
		}
		prevIdx = idx
	}
	return nil
}

// smallest returns the k smallest keys in ascending order without sorting
// all of them: candidates collect in a 2k buffer that is cut back to the k
// best whenever it fills, and keys at or above the current cut are skipped.
func smallest(keys []int64, k int) []int64 {
	buf := make([]int64, 0, 2*k)
	cut, haveCut := int64(0), false
	for _, v := range keys {
		if haveCut && v >= cut {
			continue
		}
		buf = append(buf, v)
		if len(buf) == cap(buf) {
			slices.Sort(buf)
			buf = buf[:k]
			cut, haveCut = buf[k-1], true
		}
	}
	slices.Sort(buf)
	if len(buf) > k {
		buf = buf[:k]
	}
	return buf
}
