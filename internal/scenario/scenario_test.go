package scenario

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pdm"
	"repro/internal/plan"
)

// The kernels against their oracles on an in-memory array (M = 1024,
// B = 32, D = 8): results equal a slices.Sort / map reference, and where
// the planner calls its prediction Exact the charged steps equal the plan's.

const testMem, testB, testD = 1024, 32, 8

func testArray(t *testing.T) (*pdm.Array, plan.Shape) {
	t.Helper()
	a, err := pdm.New(pdm.Config{D: testD, B: testB, Mem: testMem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n := a.Arena().InUse(); n != 0 {
			t.Errorf("kernel leaked %d arena keys", n)
		}
		a.Close()
	})
	return a, plan.Shape{Mem: testMem, B: testB, D: testD, Alpha: 1}
}

// stage loads data onto a fresh stripe padded with sentinels to pad keys
// (uncharged, like the facade's input staging).
func stage(t *testing.T, a *pdm.Array, data []int64, pad int) *pdm.Stripe {
	t.Helper()
	s, err := a.NewStripe(pad)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadPadded(data, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Free)
	return s
}

func randomKeys(n int, limit int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(limit)
	}
	return keys
}

func TestFilterMatchesOracle(t *testing.T) {
	a, shape := testArray(t)
	const n, k = 5000, 40
	keys := randomKeys(n, 1<<40, 1)
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	p := plan.TopKPlan(shape, plan.Workload{N: n}, k)
	if !p.Feasible || !p.Exact {
		t.Fatalf("plan %+v, want feasible and exact", p)
	}
	in := stage(t, a, keys, p.PaddedN)

	// A window [lo, hi] keeps exactly the keys inside it, in input order,
	// and counts the ones below; the padding never survives.
	lo, hi := sorted[100], sorted[100+k-1]
	st0 := a.Stats()
	fr, err := Filter(a, in, lo, hi, true, p.Budget)
	if err != nil {
		t.Fatal(err)
	}
	io := a.Stats().Sub(st0)
	var want []int64
	for _, v := range keys {
		if v >= lo && v <= hi {
			want = append(want, v)
		}
	}
	if !slices.Equal(fr.Kept, want) || fr.Below != 100 {
		t.Fatalf("kept %d keys with %d below, want %d with 100", len(fr.Kept), fr.Below, len(want))
	}
	if io.ReadSteps != p.ReadSteps || io.WriteSteps != 0 {
		t.Fatalf("charged %d/%d steps, the plan's one read pass is %d/0", io.ReadSteps, io.WriteSteps, p.ReadSteps)
	}

	// One survivor past the budget is an overflow, and hi = MaxInt64 (which
	// would keep the padding) is refused outright.
	if _, err := Filter(a, in, 0, sorted[k], false, k); !errors.Is(err, ErrOverflow) {
		t.Fatalf("k+1 survivors into a budget of k: err = %v, want ErrOverflow", err)
	}
	if _, err := Filter(a, in, 0, math.MaxInt64, false, n); err == nil {
		t.Fatal("Filter accepted a threshold that keeps the padding sentinels")
	}
}

func TestGroupOnePassMatchesOracle(t *testing.T) {
	a, shape := testArray(t)
	const n, groups = 6000, 300
	keys := randomKeys(n, groups, 2)
	payloads := randomKeys(n, 1000, 3)
	for _, pairWords := range []int{1, 2} {
		p := plan.GroupByPlan(shape, n, groups, pairWords)
		if p.Route != plan.RouteOnePass || !p.Exact {
			t.Fatalf("pairWords=%d: plan %+v, want the exact one-pass route", pairWords, p)
		}
		pairs, vals := keys, keys
		if pairWords == 2 {
			vals = payloads
			pairs = make([]int64, 0, 2*n)
			for i, k := range keys {
				pairs = append(pairs, k, payloads[i])
			}
		}
		in := stage(t, a, pairs, p.PaddedN)
		st0 := a.Stats()
		got, err := GroupOnePass(a, in, pairWords, plan.GroupCap(testMem))
		if err != nil {
			t.Fatal(err)
		}
		io := a.Stats().Sub(st0)

		oracle := map[int64]*Agg{}
		for i, k := range keys {
			g, ok := oracle[k]
			if !ok {
				g = &Agg{Key: k, Min: vals[i], Max: vals[i]}
				oracle[k] = g
			}
			g.Count++
			g.Sum += vals[i]
			g.Min, g.Max = min(g.Min, vals[i]), max(g.Max, vals[i])
		}
		if len(got) != len(oracle) {
			t.Fatalf("pairWords=%d: %d groups, want %d", pairWords, len(got), len(oracle))
		}
		for i, g := range got {
			if i > 0 && got[i-1].Key >= g.Key {
				t.Fatalf("pairWords=%d: groups not ascending at %d", pairWords, i)
			}
			if g != *oracle[g.Key] {
				t.Fatalf("pairWords=%d: group %+v, want %+v", pairWords, g, *oracle[g.Key])
			}
		}
		if io.ReadSteps != p.ReadSteps || io.WriteSteps != p.WriteSteps {
			t.Fatalf("pairWords=%d: charged %d/%d steps, plan %d/%d", pairWords, io.ReadSteps, io.WriteSteps, p.ReadSteps, p.WriteSteps)
		}
		// One group more than the table holds is an overflow, not a wrong answer.
		if _, err := GroupOnePass(a, in, pairWords, len(oracle)-1); !errors.Is(err, ErrOverflow) {
			t.Fatalf("pairWords=%d: err = %v, want ErrOverflow", pairWords, err)
		}
	}
}

func TestMergeMatchesOracle(t *testing.T) {
	a, _ := testArray(t)
	stripe := a.StripeWidth()
	for _, sz := range [][2]int{{4000, 700}, {stripe, stripe}, {1, 3000}, {2500, 0}} {
		x := randomKeys(sz[0], 1<<20, 4) // a narrow range, so ties cross the lanes
		y := randomKeys(sz[1], 1<<20, 5)
		slices.Sort(x)
		slices.Sort(y)
		padX := (len(x) + stripe - 1) / stripe * stripe
		padY := max((len(y)+stripe-1)/stripe*stripe, stripe)
		sx, sy := stage(t, a, x, padX), stage(t, a, y, padY)
		st0 := a.Stats()
		out, err := Merge(a, sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		io := a.Stats().Sub(st0)
		flat, err := out.Unload()
		out.Free()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Concat(x, y)
		slices.Sort(want)
		if !slices.Equal(flat[:len(want)], want) {
			t.Fatalf("%v: merged prefix differs from the sorted concatenation", sz)
		}
		for _, v := range flat[len(want):] {
			if v != math.MaxInt64 {
				t.Fatalf("%v: tail holds %d, want only padding", sz, v)
			}
		}
		// One streamed pass: every padded input stripe read once, every
		// output stripe written once (IngestPlan's mergeSteps).
		if steps := int64((padX + padY) / stripe); io.ReadSteps != steps || io.WriteSteps != steps {
			t.Fatalf("%v: charged %d/%d steps, want %d/%d", sz, io.ReadSteps, io.WriteSteps, steps, steps)
		}
	}
}
