package memsort

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzSelect checks Select against the slices.Sort oracle on fuzzer-shaped
// keys.  The first byte picks the key width — odd: one byte per key from a
// range of 8, so ties and equal-pivot partitions dominate; even: eight bytes
// per key, full range — the next two bytes the rank (mod n), and the rest
// are the keys.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 7})
	f.Add([]byte("\x01\x11\x00three-way partitions settle the pivot's equals in one step"))
	f.Add([]byte("\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x80\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		narrow, rank := data[0]&1 == 1, int(binary.LittleEndian.Uint16(data[1:3]))
		var keys []int64
		if narrow {
			for _, b := range data[3:] {
				keys = append(keys, int64(b%8)-4)
			}
		} else {
			for raw := data[3:]; len(raw) >= 8; raw = raw[8:] {
				keys = append(keys, int64(binary.LittleEndian.Uint64(raw)))
			}
		}
		if len(keys) == 0 {
			return
		}
		k := rank % len(keys)
		want := slices.Clone(keys)
		slices.Sort(want)
		got := Select(keys, k)
		if got != want[k] || keys[k] != got {
			t.Fatalf("Select(k=%d of %d) = %d (a[k] = %d), want %d", k, len(keys), got, keys[k], want[k])
		}
		if slices.Max(keys[:k+1]) != got || slices.Min(keys[k:]) != got {
			t.Fatalf("k=%d of %d: keys on the wrong side of a[k] = %d", k, len(keys), got)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, want) {
			t.Fatal("Select changed the multiset")
		}
	})
}

// FuzzRadixKeys checks RadixKeys against the slices.Sort oracle on loads the
// fuzzer shapes.  Bytes 0–1 give n (at most 1<<14), byte 2 the span width
// (0–64), byte 3 a low-bit stride, bytes 4–11 the span's low end and bytes
// 12–19 the key generator's seed (spanKeys); a span that runs past MaxInt64
// wraps.  Scratch is one word longer than the load, and that word must come
// back untouched.
func FuzzRadixKeys(f *testing.F) {
	f.Add([]byte("\x00\x10\x29\x00\x00\x00\x00\x00\x00\xff\xff\xff\x07\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 20 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % (1<<14 + 1)
		width, stride := uint(data[2]%65), uint(data[3]%64)
		lo := int64(binary.LittleEndian.Uint64(data[4:]))
		a := make([]int64, n)
		spanKeys(a, lo, width, stride, binary.LittleEndian.Uint64(data[12:]))
		want := slices.Clone(a)
		slices.Sort(want)
		scratch := make([]int64, n+1)
		scratch[n] = 12345
		RadixKeys(a, scratch)
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d width=%d stride=%d lo=%d: RadixKeys differs from stdlib sort", n, width, stride, lo)
		}
		if scratch[n] != 12345 {
			t.Fatalf("n=%d: scratch word past the load written", n)
		}
	})
}

// FuzzMergeBinary checks MergeBinary against the one-branch-per-key
// baseline (mergeBinaryBranchy) on fuzzer-shaped lanes.  The first byte
// picks the key width — odd: one byte per key from a range of 8, so ties
// dominate; even: eight bytes per key, full range — and the second where
// the keys split into a and b; each lane is sorted before the merge.
func FuzzMergeBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("\x01\x20two lanes of small keys tie at every step of the merge"))
	f.Add([]byte("\x00\x08\x00\x00\x00\x00\x00\x00\x00\x80\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		narrow, split := data[0]&1 == 1, int(data[1])
		var keys []int64
		if narrow {
			for _, b := range data[2:] {
				keys = append(keys, int64(b%8)-4)
			}
		} else {
			for raw := data[2:]; len(raw) >= 8; raw = raw[8:] {
				keys = append(keys, int64(binary.LittleEndian.Uint64(raw)))
			}
		}
		split = min(split, len(keys))
		a, b := keys[:split], keys[split:]
		slices.Sort(a)
		slices.Sort(b)
		want := make([]int64, len(keys))
		mergeBinaryBranchy(want, a, b)
		got := make([]int64, len(keys))
		MergeBinary(got, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("%d + %d keys: MergeBinary differs from the branchy merge", len(a), len(b))
		}
	})
}

// FuzzStreamMerge feeds StreamMerge fuzzer-shaped lane sets — lane count,
// per-lane keys, and chunk boundaries (empty chunks included) all derive
// from the input bytes — and checks the streaming-merge contract: every
// emission fits the winning lane's current chunk, the concatenated output
// is sorted, it is a multiset permutation of the inputs, and ties come out
// in lane order (the stability the distributed sort's determinism rests
// on).
func FuzzStreamMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 0, 2, 9, 9})
	f.Add([]byte("\x04\x10chunky\x00\x00\x00\x00\x00\x00lanes\xff\xff\x07"))
	f.Add([]byte{2, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		k := int(next())%5 + 1
		type chunkedLane struct {
			chunks [][]int64
			flat   []int64
		}
		lanes := make([]chunkedLane, k)
		for l := range lanes {
			n := int(next()) % 40
			keys := make([]int64, n)
			for i := range keys {
				var raw [8]byte
				for b := range raw {
					raw[b] = next()
				}
				v := int64(binary.LittleEndian.Uint64(raw[:]) % 64) // small range forces ties
				keys[i] = v
			}
			slices.Sort(keys) // chunks of one lane must concatenate sorted
			lanes[l].flat = keys
			zeros := 0
			for off := 0; off < n; {
				sz := int(next()) % (n - off + 1) // zero-length chunks allowed
				if sz == 0 {
					if zeros++; zeros > 3 { // bound the empty-chunk runs
						sz = n - off
					}
				}
				lanes[l].chunks = append(lanes[l].chunks, keys[off:off+sz])
				off += sz
			}
		}

		cursors := make([]int, k)   // next chunk to hand out per lane
		heads := make([][]int64, k) // current chunk as seen by the merge
		pos := make([]int, k)       // consumed keys of the current chunk
		refill := func(lane int) ([]int64, error) {
			if cursors[lane] >= len(lanes[lane].chunks) {
				return nil, nil
			}
			c := lanes[lane].chunks[cursors[lane]]
			cursors[lane]++
			heads[lane], pos[lane] = c, 0
			return c, nil
		}
		var out []int64
		var outLanes []int
		err := StreamMerge(k, refill, func(lane, n int) error {
			if n <= 0 || pos[lane]+n > len(heads[lane]) {
				t.Fatalf("emission of %d keys does not fit lane %d's chunk (%d of %d consumed)",
					n, lane, pos[lane], len(heads[lane]))
			}
			out = append(out, heads[lane][pos[lane]:pos[lane]+n]...)
			for i := 0; i < n; i++ {
				outLanes = append(outLanes, lane)
			}
			pos[lane] += n
			return nil
		})
		if err != nil {
			t.Fatalf("StreamMerge: %v", err)
		}
		if !slices.IsSorted(out) {
			t.Fatal("merged output is not sorted")
		}
		var want []int64
		for _, l := range lanes {
			want = append(want, l.flat...)
		}
		got := append([]int64(nil), out...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("merged output is not a permutation of the inputs (%d vs %d keys)", len(got), len(want))
		}
		// Stability: within a run of equal keys, lanes never decrease.
		for i := 1; i < len(out); i++ {
			if out[i] == out[i-1] && outLanes[i] < outLanes[i-1] {
				t.Fatalf("tie on key %d emitted lane %d after lane %d", out[i], outLanes[i], outLanes[i-1])
			}
		}
		// Padding discipline: the merge never invents the sentinel.
		if slices.Contains(out, math.MaxInt64) {
			t.Fatal("sentinel key leaked into the merge output")
		}
	})
}
