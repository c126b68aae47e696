package repro

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

// arenaMems are the geometries TestArenaScratch prices the kernel's
// scratch at: the two of the determinism suite and the bench machine's.
var arenaMems = []int{1024, 4096, 65536}

// TestArenaScratch runs every algorithm, RadixSort and SortRecords at each
// of arenaMems with one and eight workers and checks, after each run, that
// the output is slices.Sort's and the arena is airtight
// (assertArenaAirtight): the compute kernel borrows up to M keys of scratch
// from the arena beside the buffers it works on, and Config.ArenaCapacity
// must price every borrow, since a refused one would fall back to the
// introsort with the same output and no error.
func TestArenaScratch(t *testing.T) {
	algs := []Algorithm{
		MemOnePass, ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh,
	}
	for _, mem := range arenaMems {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("M=%d/workers=%d", mem, workers), func(t *testing.T) {
				open := func() *Machine {
					m, err := NewMachine(MachineConfig{Memory: mem, Workers: workers,
						Pipeline: PipelineConfig{Prefetch: 2, WriteBehind: 2}})
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				check := func(what string, keys []int64, sort func(m *Machine, keys []int64) error) {
					t.Helper()
					m := open()
					defer m.Close()
					want := slices.Clone(keys)
					slices.Sort(want)
					if err := sort(m, keys); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !slices.Equal(keys, want) {
						t.Fatalf("%s: output differs from slices.Sort", what)
					}
					assertArenaAirtight(t, m)
				}
				for _, alg := range algs {
					n := 4*mem - 257
					if alg == MemOnePass {
						n = mem
					}
					check(alg.String(), workload.Uniform(n, -1<<40, 1<<40, 41+algSeed(alg)), func(m *Machine, k []int64) error {
						_, err := m.Sort(k, alg)
						return err
					})
				}
				check("RadixSort", workload.Uniform(4*mem-216, 0, (1<<20)-1, 43), func(m *Machine, k []int64) error {
					_, err := m.SortInts(k, 1<<20)
					return err
				})
				keys := workload.Uniform(3*mem-144, 0, 1<<16, 47)
				payloads := make([][]byte, len(keys))
				rng := rand.New(rand.NewSource(5))
				for i := range payloads {
					payloads[i] = make([]byte, rng.Intn(17))
					rng.Read(payloads[i])
				}
				check("SortRecords", keys, func(m *Machine, k []int64) error {
					_, err := m.SortRecords(k, payloads, Auto)
					return err
				})
			})
		}
	}
}
