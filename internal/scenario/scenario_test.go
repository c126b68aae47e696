package scenario

import (
	"context"
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

// pairUp lays keys (and, for pairWords = 2, payloads) out as the group-by
// kernels' input; vals is the column the aggregates summarize.
func pairUp(keys, payloads []int64, pairWords int) (pairs, vals []int64) {
	if pairWords == 1 {
		return keys, keys
	}
	pairs = make([]int64, 0, 2*len(keys))
	for i, k := range keys {
		pairs = append(pairs, k, payloads[i])
	}
	return pairs, payloads
}

// checkAggs compares a group-by result with a map-built oracle: every
// group present once, ascending, with the right aggregates.
func checkAggs(t *testing.T, got []Agg, keys, vals []int64) map[int64]*Agg {
	t.Helper()
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
		t.Fatalf("%d groups, want %d", len(got), len(oracle))
	}
	for i, g := range got {
		if i > 0 && got[i-1].Key >= g.Key {
			t.Fatalf("groups not ascending at %d", i)
		}
		if g != *oracle[g.Key] {
			t.Fatalf("group %+v, want %+v", g, *oracle[g.Key])
		}
	}
	return oracle
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
		pairs, vals := pairUp(keys, payloads, pairWords)
		in := stage(t, a, pairs, p.PaddedN)
		st0 := a.Stats()
		got, err := GroupOnePass(a, in, pairWords, plan.GroupCap(testMem))
		if err != nil {
			t.Fatal(err)
		}
		io := a.Stats().Sub(st0)
		oracle := checkAggs(t, got, keys, vals)
		if io.ReadSteps != p.ReadSteps || io.WriteSteps != p.WriteSteps {
			t.Fatalf("pairWords=%d: charged %d/%d steps, plan %d/%d", pairWords, io.ReadSteps, io.WriteSteps, p.ReadSteps, p.WriteSteps)
		}
		// One group more than the table holds is an overflow, not a wrong answer.
		if _, err := GroupOnePass(a, in, pairWords, len(oracle)-1); !errors.Is(err, ErrOverflow) {
			t.Fatalf("pairWords=%d: err = %v, want ErrOverflow", pairWords, err)
		}
	}
}

// cancelDisk cancels the array's context at its n-th block write.
type cancelDisk struct {
	pdm.Disk
	writes *int
	at     int
	cancel context.CancelFunc
}

func (d cancelDisk) WriteBlock(off int, src []int64) error {
	if *d.writes++; *d.writes == d.at {
		d.cancel()
	}
	return d.Disk.WriteBlock(off, src)
}

// TestGroupPartition: the partition route equals the oracle, its scatter
// keeps the disks busy (write steps within 5% of ⌈(blocks+parts)/D⌉, the
// plan's price), and every way the scatter can fail — arena exhaustion at
// NewScatter, a context canceled mid-scatter — surfaces, drains the arena
// (testArray's cleanup) and frees the partition stripes.
func TestGroupPartition(t *testing.T) {
	const n, groups = 40000, 4000
	keys := randomKeys(n, groups, 5)
	payloads := randomKeys(n, 1000, 6)
	shape := plan.Shape{Mem: testMem, B: testB, D: testD, Alpha: 1}
	parts := plan.PartitionFanout(n, shape)
	sizes := make([]int, parts)
	for _, k := range keys {
		sizes[PartitionIndex(k, parts)]++
	}
	for _, pairWords := range []int{1, 2} {
		a, _ := testArray(t)
		pairs, vals := pairUp(keys, payloads, pairWords)
		padded := plan.GroupByPlan(shape, n, groups, pairWords).PaddedN
		in := stage(t, a, pairs, padded)
		st0 := a.Stats()
		got, err := GroupPartition(a, in, pairWords, sizes, plan.GroupCap(testMem))
		if err != nil {
			t.Fatal(err)
		}
		checkAggs(t, got, keys, vals)
		io := a.Stats().Sub(st0)
		if ideal := (int(io.BlocksWritten) + testD - 1) / testD; float64(io.WriteSteps) > 1.05*float64(ideal) {
			t.Errorf("pairWords=%d: %d blocks written in %d steps, a full-width scatter takes %d", pairWords, io.BlocksWritten, io.WriteSteps, ideal)
		}
		if peak, limit := a.Arena().Peak(), a.Config().ArenaCapacity(); peak > limit {
			t.Errorf("pairWords=%d: arena peak %d over the capacity %d", pairWords, peak, limit)
		}
		foot := a.DiskFootprint()

		// No room for the scatter's stage: the call fails before any I/O.
		hog := a.Arena().MustAlloc(a.Config().ArenaCapacity() - testMem)
		st0 = a.Stats()
		if _, err := GroupPartition(a, in, pairWords, sizes, plan.GroupCap(testMem)); !errors.Is(err, pdm.ErrMemoryExceeded) {
			t.Fatalf("pairWords=%d: err = %v with the arena hogged, want ErrMemoryExceeded", pairWords, err)
		}
		a.Arena().Free(hog)
		if a.Stats() != st0 || a.DiskFootprint() != foot {
			t.Errorf("pairWords=%d: the rejected call charged I/O or kept stripes (footprint %d → %d)", pairWords, foot, a.DiskFootprint())
		}
	}

	// Cancel at the 100th block write: mid-scatter.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disks, writes := pdm.NewMemDisks(testD, testB), new(int)
	for d := range disks {
		disks[d] = cancelDisk{Disk: disks[d], writes: writes, at: 100, cancel: cancel}
	}
	a, err := pdm.NewWithDisks(pdm.Config{D: testD, B: testB, Mem: testMem}, disks)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	in := stage(t, a, keys, plan.GroupByPlan(shape, n, groups, 1).PaddedN)
	*writes = 0
	a.BindContext(ctx)
	if _, err := GroupPartition(a, in, 1, sizes, plan.GroupCap(testMem)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after a mid-scatter cancel, want context.Canceled", err)
	}
	if leak := a.Arena().InUse(); leak != 0 {
		t.Errorf("canceled scatter left %d arena keys", leak)
	}
	foot := a.DiskFootprint() // a rerun fits in the rows the canceled one freed
	a.BindContext(nil)
	if _, err := GroupPartition(a, in, 1, sizes, plan.GroupCap(testMem)); err != nil {
		t.Fatal(err)
	}
	if again := a.DiskFootprint(); again != foot {
		t.Errorf("canceled scatter kept its partition stripes: footprint %d → %d", foot, again)
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
