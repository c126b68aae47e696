package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/records"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/workload"
)

var updateTrace = flag.Bool("update", false, "rewrite testdata/pass_trace.golden from this tree")

// traceCase is one run of a pass-structured entry point on a fresh array;
// run returns the output stripe, if any.
type traceCase struct {
	name string
	n    int
	keys func(n int) []int64
	run  func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error)
}

func resultOut(res *core.Result, err error) (*pdm.Stripe, error) {
	if err != nil {
		return nil, err
	}
	return res.Out, nil
}

func algCase(alg core.Alg, n int, keys func(int) []int64) traceCase {
	return traceCase{fmt.Sprintf("%s n=%d", alg, n), n, keys, func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error) {
		return resultOut(alg.Run(a, in))
	}}
}

func perm(n int) []int64 { return workload.Perm(n, 7) }

// permuteCase runs records.Permute over n records of 0–40 payload bytes
// into the order perm(n); the array's input stripe is unused.
func permuteCase(n int) traceCase {
	return traceCase{fmt.Sprintf("permute n=%d", n), n, perm, func(a *pdm.Array, _ *pdm.Stripe) (*pdm.Stripe, error) {
		rng := rand.New(rand.NewSource(11))
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = make([]byte, rng.Intn(41))
			rng.Read(payloads[i])
		}
		order := make([]int, n)
		for j, i := range perm(n) {
			order[j] = int(i)
		}
		out := slices.Clone(payloads) // Permute reorders it in place
		res, err := records.Permute(a, out, order)
		if err != nil {
			return nil, err
		}
		if res.Levels == 0 {
			return nil, fmt.Errorf("permute n=%d: no scatter level", n)
		}
		for j, i := range order {
			if !bytes.Equal(out[j], payloads[i]) {
				return nil, fmt.Errorf("permute n=%d: output %d is not payload %d", n, j, i)
			}
		}
		return nil, nil
	}}
}

// groupCase runs scenario.GroupPartition over n pairs of pairWords words
// drawn from 2m keys, routed to six partitions; the input is the pairs
// padded with MaxInt64 keys to whole stripes of stripe words.
func groupCase(m, stripe, n, pairWords int) traceCase {
	const parts = 6
	rng := rand.New(rand.NewSource(5))
	pairs := make([]int64, 0, n*pairWords)
	sizes := make([]int, parts)
	for i := 0; i < n; i++ {
		k := rng.Int63n(int64(2 * m))
		sizes[scenario.PartitionIndex(k, parts)]++
		pairs = append(pairs, k)
		if pairWords == 2 {
			pairs = append(pairs, rng.Int63n(1000))
		}
	}
	for len(pairs)%stripe != 0 {
		pairs = append(pairs, math.MaxInt64)
	}
	return traceCase{fmt.Sprintf("grouppartition pairWords=%d n=%d", pairWords, n), n,
		func(int) []int64 { return pairs },
		func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error) {
			aggs, err := scenario.GroupPartition(a, in, pairWords, sizes, m/2)
			if err != nil {
				return nil, err
			}
			var count int64
			for _, g := range aggs {
				count += g.Count
			}
			if count != int64(n) {
				return nil, fmt.Errorf("grouppartition: %d pairs aggregated, want %d", count, n)
			}
			return nil, nil
		}}
}

// traceCases lists every pass-structured entry point at one geometry: each
// runnable core.Alg (the expected algorithms also on sorted input, which
// drives their fallbacks), SevenPass with l < D and l = D, RadixSort,
// IntegerSort with and without step A, the multiway merge baseline,
// stream.Pipe, and the two distribution routes outside core: the records
// permutation at one and two scatter levels and the partitioned group-by.
func traceCases(m, d int) []traceCase {
	sq := memsort.Isqrt(m)
	lSmall := d / 2   // a superrun count below D
	mid := sq / 2 * m // N/M = √M/2 divides √M
	pipeN := 4*m + 3*sq*d
	cases := []traceCase{
		algCase(core.AlgOne, m, perm),
		algCase(core.AlgMesh3, mid, perm),
		algCase(core.AlgMesh3, sq*m, perm),
		algCase(core.AlgMesh2e, mid, perm),
		algCase(core.AlgMesh2e, mid, workload.Sorted),
		algCase(core.AlgLMM3, mid, perm),
		algCase(core.AlgLMM3, sq*m, perm),
		algCase(core.AlgExp2, mid, perm),
		algCase(core.AlgExp2, mid, workload.Sorted),
		algCase(core.AlgExp3, lSmall*lSmall*m, perm),
		algCase(core.AlgExp3, lSmall*lSmall*m, workload.Sorted),
		algCase(core.AlgSeven, lSmall*lSmall*m, perm),
		algCase(core.AlgSeven, d*d*m, perm),
		algCase(core.AlgSix, lSmall*lSmall*m, perm),
		algCase(core.AlgSix, lSmall*lSmall*m, workload.Sorted),
		algCase(core.AlgSevenMesh, lSmall*lSmall*m, perm),
		{fmt.Sprintf("radix n=%d", 16*m), 16 * m, perm, func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error) {
			return resultOut(core.RadixSort(a, in, int64(in.Len())))
		}},
		{fmt.Sprintf("multiway n=%d", 16*m), 16 * m, perm, func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error) {
			return resultOut(baseline.MultiwayMergeSort(a, in))
		}},
		{fmt.Sprintf("pipe n=%d", pipeN), pipeN, perm, func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error) {
			dst, err := a.NewStripe(in.Len())
			if err != nil {
				return nil, err
			}
			err = stream.Pipe(in, dst, make([]int64, 2*sq*d), func(_ int, chunk []int64) error {
				slices.Reverse(chunk)
				return nil
			})
			return dst, err
		}},
	}
	for _, rearrange := range []bool{true, false} {
		cases = append(cases, traceCase{fmt.Sprintf("intsort rearrange=%v n=%d", rearrange, 8*m), 8 * m,
			func(n int) []int64 {
				keys := perm(n)
				for i := range keys {
					keys[i] %= int64(sq)
				}
				return keys
			},
			func(a *pdm.Array, in *pdm.Stripe) (*pdm.Stripe, error) {
				return resultOut(core.IntegerSort(a, in, 0, rearrange))
			}})
	}
	b := memsort.Isqrt(m)
	cases = append(cases, permuteCase(4*m), permuteCase(20*m),
		groupCase(m, d*b, 4*m, 1), groupCase(m, d*b, 4*m, 2))
	return cases
}

// TestPassTraceGolden pins the I/O schedule of every pass-structured entry
// point: per case the charged blocks and steps, a SHA-256 of the full request
// trace, and the arena's overall and per-phase peaks, on two geometries with a depth-2
// pipeline.  A change to how passes are driven must leave the golden
// byte-identical.  Regenerate with
// go test ./internal/core -run TestPassTraceGolden -update.
func TestPassTraceGolden(t *testing.T) {
	var got strings.Builder
	for _, geo := range []struct{ m, d int }{{256, 4}, {1024, 8}} {
		cfg := pdm.Config{D: geo.d, B: memsort.Isqrt(geo.m), Mem: geo.m,
			Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}}
		for _, tc := range traceCases(geo.m, geo.d) {
			fmt.Fprintf(&got, "== M=%d D=%d %s\n%s", geo.m, geo.d, tc.name, traceRun(t, cfg, tc))
		}
	}

	const golden = "testdata/pass_trace.golden"
	if *updateTrace {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("pass schedules drifted from %s\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}

// traceRun runs one case on a fresh array and renders its accounting.
func traceRun(t *testing.T, cfg pdm.Config, tc traceCase) string {
	t.Helper()
	a, err := pdm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := tc.keys(tc.n)
	in, err := a.NewStripe(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(data); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	a.Arena().ResetPeak()
	a.EnableTrace()
	out, err := tc.run(a, in)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	st, trace := a.Stats(), a.Trace()
	h := sha256.New()
	var word [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	for _, op := range trace {
		w := 0
		if op.Write {
			w = 1
		}
		put(w)
		put(len(op.Addrs))
		for _, ad := range op.Addrs {
			put(ad.Disk)
			put(ad.Off)
		}
	}
	if out != nil {
		keys, err := out.Unload()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(tc.name, "pipe") && !memsort.IsSorted(keys) {
			t.Fatalf("%s: output not sorted", tc.name)
		}
		out.Free()
	}
	if leak := a.Arena().InUse(); leak != 0 {
		t.Fatalf("%s: %d arena keys still in use", tc.name, leak)
	}
	return fmt.Sprintf("blocks=%d/%d steps=%d/%d ops=%d trace=%x\npeak=%d peaks=%s\n",
		st.BlocksRead, st.BlocksWritten, st.ReadSteps, st.WriteSteps, len(trace), h.Sum(nil),
		a.Arena().Peak(), strings.Join(a.Arena().PhasePeaks(), " "))
}
