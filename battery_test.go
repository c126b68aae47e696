package repro

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

// batteryInput is one input shape of TestFacadeInputBattery at M = mem.
type batteryInput struct {
	name string
	keys func(mem int) []int64
}

// batteryInputs are the shapes the block-exact passes (ThreePass2's runs
// and L_j, ExpectedTwoPass's runs) must get right through the facade.
// Every shape but "uniform-padded" and "full-range" sorts 8·M keys, which
// needs no padding; those two sort 8·M − 257, so the facade pads them with
// MaxInt64 sentinels.  "full-range" holds MinInt64 and MaxInt64 − 1 (the
// largest key the facade accepts) beside uniform 64-bit keys, so with its
// padding a load's span is the whole word and wraps RadixBlocks' int64
// difference.  "empty" pads no keys to one run of sentinels.
var batteryInputs = []batteryInput{
	{"sorted", func(mem int) []int64 { return workload.Sorted(8 * mem) }},
	{"reversed", func(mem int) []int64 { return workload.ReverseSorted(8 * mem) }},
	{"all-equal", func(mem int) []int64 { return slices.Repeat([]int64{-5}, 8*mem) }},
	{"two-valued", func(mem int) []int64 { return workload.FewDistinct(8*mem, 2, 3) }},
	{"zipf", func(mem int) []int64 { return workload.Zipf(8*mem, 1.2, 1<<30, 5) }},
	{"full-range", func(mem int) []int64 {
		rng := rand.New(rand.NewSource(7))
		keys := make([]int64, 8*mem-257)
		for i := range keys {
			keys[i] = int64(rng.Uint64())
			if keys[i] == math.MaxInt64 {
				keys[i]--
			}
		}
		for i := 0; i < 40; i++ {
			keys[rng.Intn(len(keys))] = math.MinInt64
			keys[rng.Intn(len(keys))] = math.MaxInt64 - 1
		}
		return keys
	}},
	{"uniform-padded", func(mem int) []int64 { return workload.Uniform(8*mem-257, -1<<40, 1<<40, 11) }},
	{"empty", func(int) []int64 { return []int64{} }},
}

// TestFacadeInputBattery sorts every batteryInputs shape through the
// facade with each algorithm whose passes are block-exact rather than
// sorted — lmm3, exp2, and the exp3 and exp6 that nest exp2 and fall back
// to lmm3 — at M = 1024 and 4096 and at one and four workers.  The output
// must equal slices.Sort's, and the Report, stats and I/O trace must be
// identical at both worker counts (assertIdenticalRuns), each arena
// airtight.
func TestFacadeInputBattery(t *testing.T) {
	algs := []Algorithm{ThreePassLMM, TwoPassExpected, ThreePassExpected, SixPassExpected}
	for _, alg := range algs {
		for _, mem := range kernelMems {
			for _, in := range batteryInputs {
				t.Run(fmt.Sprintf("%s/M=%d/%s", alg, mem, in.name), func(t *testing.T) {
					keys := in.keys(mem)
					want := slices.Clone(keys)
					slices.Sort(want)
					sort := func(m *Machine, k []int64) (*Report, error) { return m.Sort(k, alg) }
					serial := sortAtMemory(t, mem, 1, keys, sort)
					if !slices.Equal(serial.out, want) {
						t.Fatal("output differs from slices.Sort")
					}
					assertIdenticalRuns(t, serial, sortAtMemory(t, mem, 4, keys, sort))
				})
			}
		}
	}
}
