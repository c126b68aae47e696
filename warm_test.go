//go:build !race

package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/workload"
)

// TestWarmSortAllocations checks that a warm Machine.Sort's host
// allocations are a constant of the machine, not of the input: every
// algorithm, at every pipeline depth TestSortsReuseArenaScratch covers and
// at M = 1024, 4096 and 65536, sorts a small and a large input on one warm
// machine.  Every block address of a pass is arithmetic on a stripe and a
// chunk index, and every list a pass builds is recycled, so the large sort
// may allocate more only for the stripes its extra memory loads add: a
// handle, a slice slot and a checkpoint entry apiece — its runs, and, while
// runs are fewer than the disks, the narrower merge batches of ThreePass2,
// each a stripe of its own.  That is at most 12 allocations and 1 KiB per
// extra load; at M = 65536 one address per block of a load is 4 KiB.  The
// race detector's own bookkeeping would blur the counts, so the file is
// built without it.
func TestWarmSortAllocations(t *testing.T) {
	depths := []PipelineConfig{{}, {Prefetch: 1, WriteBehind: 1},
		{Prefetch: 2, WriteBehind: 2}, {Prefetch: 4, WriteBehind: 1}, {Prefetch: 4, WriteBehind: 4}}
	algs := []Algorithm{MemOnePass, ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh, core.AlgRadix}
	for _, mem := range arenaMems {
		for _, depth := range depths {
			t.Run(fmt.Sprintf("M=%d/%d-%d", mem, depth.Prefetch, depth.WriteBehind), func(t *testing.T) {
				m, err := NewMachine(MachineConfig{Memory: mem, Workers: 2, Pipeline: depth})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				for _, alg := range algs {
					small, large := 2*mem, 4*mem
					if alg == MemOnePass {
						small, large = mem/2, mem
					}
					input := workload.Uniform(large, 0, 1<<40, 7)
					keys := make([]int64, large)
					sort := func(n int) {
						copy(keys, input[:n])
						if alg == core.AlgRadix {
							_, err = m.SortInts(keys[:n], 1<<40)
						} else {
							_, err = m.Sort(keys[:n], alg)
						}
						if err != nil {
							t.Fatalf("%v at N = %d: %v", alg, n, err)
						}
					}
					// measure returns the bytes and allocations of a warm sort
					// of n keys, the least of five runs: a goroutine the
					// scheduler starts late can grow a fill list once.
					measure := func(n int) (bytes, allocs uint64) {
						var before, after runtime.MemStats
						for run := range 5 {
							runtime.ReadMemStats(&before)
							sort(n)
							runtime.ReadMemStats(&after)
							b, a := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
							if run == 0 || b < bytes {
								bytes = b
							}
							if run == 0 || a < allocs {
								allocs = a
							}
						}
						return bytes, allocs
					}
					sort(large) // warm the arena and the disks for both sizes
					sort(small)
					sb, sa := measure(small)
					lb, la := measure(large)
					loads := uint64((large - small) / mem)
					t.Logf("%v: N = %d: %d B in %d allocs; N = %d: %d B in %d allocs",
						alg, small, sb, sa, large, lb, la)
					if lb > sb+1024*loads || la > sa+12*loads {
						t.Errorf("%v: a warm sort of %d keys allocates %d B in %d allocs, of %d keys %d B in %d allocs: it grows with N",
							alg, small, sb, sa, large, lb, la)
					}
				}
			})
		}
	}
}

// TestWarmSortAllocationsIgnoreGC checks that a warm sort allocates the
// same bytes whether or not a collection ran just before it: the lists a
// Reader or Writer hands on and RadixSort's directories are kept on free
// lists a GC does not empty.  Each side is the least of five warm sorts
// (a goroutine the scheduler starts late can grow a fill list once), and
// with two collections before each sort it may exceed the side without
// them by at most 1 KiB.
func TestWarmSortAllocationsIgnoreGC(t *testing.T) {
	const mem, n = 4096, 4 * 4096
	m, err := NewMachine(MachineConfig{Memory: mem, Workers: 2, Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	input := workload.Uniform(n, 0, 1<<40, 9)
	keys := make([]int64, n)
	for _, alg := range []Algorithm{ThreePassLMM, core.AlgRadix} {
		sort := func(gc bool) uint64 {
			copy(keys, input)
			if gc {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if alg == core.AlgRadix {
				_, err = m.SortInts(keys, 1<<40)
			} else {
				_, err = m.Sort(keys, alg)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		sort(false) // warm the arena, the disks and the free lists
		var plain, collected uint64
		for run := range 5 {
			p, c := sort(false), sort(true)
			if run == 0 || p < plain {
				plain = p
			}
			if run == 0 || c < collected {
				collected = c
			}
		}
		t.Logf("%v: %d B, %d B right after a collection", alg, plain, collected)
		if collected > plain+1024 {
			t.Errorf("%v: a warm sort allocates %d B, but %d B right after a collection", alg, plain, collected)
		}
	}
}

// TestWarmSortRecordsAllocations bounds a warm SortRecords' host
// allocations: the payload image it returns (8·PaddedWords bytes), two
// words per record — the sort words, which become the key order and then
// the sorted keys, and the permutation's destination offsets — and 64 KiB.
// That constant covers the key sort's own lists, the report and, per
// memory load of payload, a partition's stripe handle and stream reader
// and two chunk-table words: at most the fanout M/B of them on these
// one-level stores.  Uniform keys span 63 bits, so the digit-tie
// refinement runs too, in memory.  Zipf keys over 2^62 leave tie runs
// longer than M, which recurse: each key round past the first may add one
// word per record (its sort words), no more.  Each side is the least of
// five warm sorts, on mem and file disks at M = 4096, for payloads of 8,
// 24 and 64 bytes and a variable-width set with empty ones.
func TestWarmSortRecordsAllocations(t *testing.T) {
	const mem, n, constant = 4096, 4 * 4096, 64 << 10
	keySets := map[string][]int64{
		"uniform": workload.Uniform(n, -1<<61, 1<<61, 5),
		"zipf":    workload.Zipf(n, 1.1, 1<<62, 5),
	}
	widths := map[string]func(i int) int{
		"8B":    func(int) int { return 8 },
		"24B":   func(int) int { return 24 },
		"64B":   func(int) int { return 64 },
		"0-40B": func(i int) int { return (i * 7919) % 41 },
	}
	for _, disks := range []string{"mem", "file"} {
		cfg := MachineConfig{Memory: mem, Workers: 2, Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}}
		if disks == "file" {
			cfg.Dir = t.TempDir()
		}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ks, keys0 := range keySets {
			for wn, width := range widths {
				name := ks + " keys, " + wn
				var blob []byte
				payloads0 := make([][]byte, n)
				for i := range payloads0 {
					w := width(i)
					blob = append(blob, make([]byte, w)...)
					payloads0[i] = blob[len(blob)-w : len(blob) : len(blob)]
				}
				keys, payloads := make([]int64, n), make([][]byte, n)
				var rep *Report
				sort := func() uint64 {
					copy(keys, keys0)
					copy(payloads, payloads0)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					rep, err = m.SortRecords(keys, payloads, ThreePassLMM)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatalf("%s disks, %s payloads: %v", disks, name, err)
					}
					return after.TotalAlloc - before.TotalAlloc
				}
				sort() // warm the arena, the disks and the free lists
				least := sort()
				for range 4 {
					least = min(least, sort())
				}
				image := 8 * uint64(memsort.CeilDiv(rep.PayloadWords, m.Array().B())*m.Array().B())
				bound := image + 8*uint64((1+rep.KeyRounds)*n) + constant
				t.Logf("%s disks, %s payloads: %d B = image %d + %.1f B per record", disks, name, least, image, float64(int64(least)-int64(image))/n)
				if least > bound {
					t.Errorf("%s disks, %s payloads: a warm SortRecords allocates %d B, over the image %d + %d words per record + %d",
						disks, name, least, image, 1+rep.KeyRounds, constant)
				}
			}
		}
		m.Close()
	}
}
