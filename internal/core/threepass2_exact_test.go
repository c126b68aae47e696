package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestThreePass2ExactAtEveryL is ThreePass2's exactness battery: at every
// l = N/M ≤ √M on three small geometries, and at two off-divisor l on the
// bench geometry, run formation and the shuffle cleanup take exactly one
// pass each (measured between the checkpointer's pass boundaries), the
// total equals plan.ExactPasses to the last bit, and the output is sorted.
func TestThreePass2ExactAtEveryL(t *testing.T) {
	type tcase struct{ mem, d, l int }
	var cases []tcase
	for _, g := range []struct{ mem, d int }{{256, 4}, {1024, 8}, {4096, 16}} {
		for l := 1; l*l <= g.mem; l++ {
			cases = append(cases, tcase{g.mem, g.d, l})
		}
	}
	cases = append(cases, tcase{65536, 64, 3}, tcase{65536, 64, 17})
	for _, c := range cases {
		t.Run(fmt.Sprintf("M=%d/D=%d/l=%d", c.mem, c.d, c.l), func(t *testing.T) {
			sq := memsort.Isqrt(c.mem)
			a, err := pdm.New(pdm.Config{D: c.d, B: sq, Mem: c.mem,
				Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			n := c.l * c.mem
			data := workload.Uniform(n, -1<<40, 1<<40, int64(c.l))
			in, err := a.NewStripe(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Load(data); err != nil {
				t.Fatal(err)
			}
			a.ResetStats()
			var bounds []pdm.Stats
			a.SetCheckpointer(func(cp pdm.Checkpoint) error {
				bounds = append(bounds, cp.Stats)
				return nil
			})
			res, err := core.ThreePass2(a, in)
			if err != nil {
				t.Fatal(err)
			}
			if len(bounds) != 2 {
				t.Fatalf("%d pass boundaries, want 2", len(bounds))
			}
			dxb := a.StripeWidth()
			for _, p := range []struct {
				name string
				io   pdm.Stats
			}{{"pass 1", bounds[0]}, {"pass 3", res.IO.Sub(bounds[1])}} {
				if r, w := p.io.ReadPasses(n, dxb), p.io.WritePasses(n, dxb); r != 1 || w != 1 {
					t.Errorf("%s: %.6f read / %.6f write passes, want exactly 1", p.name, r, w)
				}
			}
			read, write, exact := plan.ExactPasses(plan.Shape{Mem: c.mem, B: sq, D: c.d, Alpha: 1},
				plan.Workload{N: n}, plan.LMM3)
			if !exact {
				t.Fatal("plan.ExactPasses(lmm3) is not exact")
			}
			if res.ReadPasses != read || res.WritePasses != write {
				t.Errorf("measured %.6f/%.6f passes, plan.ExactPasses %.6f/%.6f",
					res.ReadPasses, res.WritePasses, read, write)
			}
			got, err := res.Out.Unload()
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(data)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatal("output is not the sorted input")
			}
		})
	}
}

// TestThreePass2BlockExactMerge runs ThreePass2 where pass 2 splits its
// groups with the radix kernel (memsort.RadixBlocks), which is every group
// of at least memsort.RadixMinKeys keys: 1024-key groups at M = 1024,
// D = 8, l = 32; groups of 4096 keys, one per batch, at M = 4096, D = 16,
// l = 64; 512-key groups, several per batch, at l = 8; two groups per
// batch at M = 16Ki, D = 64, l = 32.  Each runs on uniform keys, on keys padded with MaxInt64
// sentinels the way the facade pads an N that is not a multiple of M, and
// on seven-valued duplicates, at Workers 1 and 8.  The output is
// slices.Sort's; at the pass-2 boundary every L_j, read uncharged through
// the manifest's views, is block-exact (each B-key block holds the keys of
// its ranks); and the backing stripes hash the same at both widths,
// because a checkpoint may resume at another width.  On uniform keys some
// block is unsorted, which shows the block split ran.
func TestThreePass2BlockExactMerge(t *testing.T) {
	for _, g := range []struct{ mem, d, l int }{{1024, 8, 32}, {4096, 16, 64}, {4096, 16, 8}, {16384, 64, 32}} {
		n := g.l * g.mem
		rng := rand.New(rand.NewSource(5))
		inputs := map[string][]int64{
			"uniform": workload.Uniform(n, -1<<40, 1<<40, 5),
			"padded":  append(workload.Uniform(n-1000, -1<<40, 1<<40, 6), slices.Repeat([]int64{math.MaxInt64}, 1000)...),
			"dup7":    make([]int64, n),
		}
		for i := range inputs["dup7"] {
			inputs["dup7"][i] = rng.Int63n(7)
		}
		for name, data := range inputs {
			t.Run(fmt.Sprintf("M=%d/l=%d/%s", g.mem, g.l, name), func(t *testing.T) {
				want := slices.Clone(data)
				slices.Sort(want)
				var hashes []uint64
				for _, workers := range []int{1, 8} {
					hash, unsorted := runBlockExactPass2(t, g.mem, g.d, workers, data, want)
					if name == "uniform" && unsorted == 0 {
						t.Fatal("every pass-2 block came back sorted: the block split did not run")
					}
					hashes = append(hashes, hash)
				}
				if hashes[0] != hashes[1] {
					t.Fatalf("pass-2 backing stripes differ between Workers 1 and 8 (%x, %x)", hashes[0], hashes[1])
				}
			})
		}
	}
}

// runBlockExactPass2 is one TestThreePass2BlockExactMerge run: it checks
// the output and L_j's block exactness, and returns the hash of pass 2's
// backing stripes and how many of L_j's blocks were unsorted.
func runBlockExactPass2(t *testing.T, mem, d, workers int, data, want []int64) (hash uint64, unsorted int) {
	t.Helper()
	sq := memsort.Isqrt(mem)
	a, err := pdm.New(pdm.Config{D: d, B: sq, Mem: mem, Workers: workers,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	in, err := a.NewStripe(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(data); err != nil {
		t.Fatal(err)
	}
	a.SetCheckpointer(func(cp pdm.Checkpoint) error {
		if cp.Pass != 2 {
			return nil
		}
		h := fnv.New64a()
		for _, ref := range cp.Stripes["backing"] {
			h.Write(wordBytes(readRef(t, a, ref, 0, 1, ref.Keys/sq)))
		}
		hash = h.Sum64()
		for _, v := range cp.Views {
			lj := readRef(t, a, cp.Stripes["backing"][v.Stripe], v.StartBlk, v.StrideBlk, v.Keys/sq)
			sorted := slices.Clone(lj)
			slices.Sort(sorted)
			for s := 0; s < len(lj); s += sq {
				blk := slices.Clone(lj[s : s+sq])
				if !slices.IsSorted(blk) {
					unsorted++
				}
				slices.Sort(blk)
				if !slices.Equal(blk, sorted[s:s+sq]) {
					t.Fatalf("workers=%d: L_j block at %d does not hold the keys of its ranks", workers, s)
				}
			}
		}
		return nil
	})
	res, err := core.ThreePass2(a, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Out.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("workers=%d: output is not the sorted input", workers)
	}
	return hash, unsorted
}

// readRef reads, uncharged, blocks start, start+stride, … (count of them)
// of the stripe ref names.
func readRef(t *testing.T, a *pdm.Array, ref pdm.StripeRef, start, stride, count int) []int64 {
	t.Helper()
	b, d := a.B(), a.D()
	out := make([]int64, count*b)
	addrs := make([]pdm.BlockAddr, count)
	bufs := make([][]int64, count)
	for k := range addrs {
		j := start + k*stride
		addrs[k] = pdm.BlockAddr{Disk: (j + ref.Skew) % d, Off: ref.Row0 + j/d}
		bufs[k] = out[k*b : (k+1)*b]
	}
	if err := a.TransferV(addrs, bufs, false); err != nil {
		t.Fatal(err)
	}
	return out
}

// wordBytes is the little-endian encoding of keys, for hashing.
func wordBytes(keys []int64) []byte {
	out := make([]byte, 0, 8*len(keys))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, uint64(k))
	}
	return out
}
