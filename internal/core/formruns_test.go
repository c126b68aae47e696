package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pdm"
)

// loadExactShapes are the inputs TestFormRunsLoadExact splits: uniform
// keys over the whole word with MinInt64 and MaxInt64 present (the span
// wraps), a few tight clusters far apart (the split refines several levels
// down), a MaxInt64-padded tail (the facade's sentinels), and seven
// distinct values (buckets of equal keys).
var loadExactShapes = []string{"full-range", "clustered", "max-padded", "dup7"}

func loadExactKeys(shape string, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int64, n)
	for i := range a {
		switch shape {
		case "full-range":
			a[i] = int64(rng.Uint64())
		case "clustered":
			a[i] = rng.Int63n(5)<<50 + rng.Int63n(1<<20)
		case "max-padded":
			a[i] = rng.Int63n(1<<41) - 1<<40
			if i%16 == 15 {
				a[i] = math.MaxInt64
			}
		case "dup7":
			a[i] = rng.Int63n(7) - 3
		}
	}
	if shape == "full-range" {
		a[rng.Intn(n)], a[rng.Intn(n)] = math.MinInt64, math.MaxInt64
	}
	return a
}

// loadExactInput loads keys into a fresh stripe of a without charging I/O.
func loadExactInput(t *testing.T, a *pdm.Array, keys []int64) *pdm.Stripe {
	t.Helper()
	in, err := a.NewStripe(len(keys))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Load(keys); err != nil {
		t.Fatal(err)
	}
	return in
}

// unloadAll reads every stripe back without charging I/O.
func unloadAll(t *testing.T, ss []*pdm.Stripe) [][]int64 {
	t.Helper()
	out := make([][]int64, len(ss))
	for i, s := range ss {
		keys, err := s.Unload()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = keys
	}
	return out
}

// assertBlockExact checks that every aligned blk-key block of got holds
// exactly the keys of the same ranks of want, which is sorted.
func assertBlockExact(t *testing.T, name string, got, want []int64, blk int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", name, len(got), len(want))
	}
	for s := 0; s < len(got); s += blk {
		b := slices.Clone(got[s : s+blk])
		slices.Sort(b)
		if !slices.Equal(b, want[s:s+blk]) {
			t.Fatalf("%s: block [%d, %d) does not hold the keys of its ranks", name, s, s+blk)
		}
	}
}

// TestFormRunsLoadExact checks run formation at the property each
// cleanup relies on, reading the run stripes back uncharged.
//
// ExpectedTwoPass (formRuns) at N/M ∈ {1, 2, 8, 16, √M}: every per-key
// block of every run, per = M/(N/M), holds exactly the keys of the same
// ranks of the sorted input segment.
//
// ThreePass2 (formRunsUnshuffled, then mergePartGroups): every run is a
// permutation of its input segment, and at 256 random thresholds x per run
// — half of them keys of the run, so ties are hit — the counts below x of
// its √M parts differ by at most one, so the L_j's counts differ by at
// most l, Lemma 4.1's premise.  Each L_j is then block-exact at B over the
// multiset of part j of every run.
func TestFormRunsLoadExact(t *testing.T) {
	for _, mem := range []int{1024, 4096} {
		sq := int(math.Sqrt(float64(mem)))
		for _, shape := range loadExactShapes {
			for _, l := range []int{1, 2, 8, 16, sq} {
				name := fmt.Sprintf("M=%d/%s/l=%d", mem, shape, l)
				keys := loadExactKeys(shape, l*mem, int64(mem+l))
				t.Run("exp2/"+name, func(t *testing.T) { checkFormRuns(t, mem, keys, l) })
				t.Run("lmm3/"+name, func(t *testing.T) { checkFormRunsUnshuffled(t, mem, keys, l) })
			}
		}
	}
}

func checkFormRuns(t *testing.T, mem int, keys []int64, l int) {
	a := newTestArray(t, mem, 8)
	in := loadExactInput(t, a, keys)
	per := mem / l
	runs, err := formRuns(a, in, 0, len(keys), mem, per)
	if err != nil {
		t.Fatal(err)
	}
	defer freeAll(runs)
	for i, run := range unloadAll(t, runs) {
		want := slices.Clone(keys[i*mem : (i+1)*mem])
		slices.Sort(want)
		assertBlockExact(t, fmt.Sprintf("run %d", i), run, want, per)
	}
	if a.Arena().InUse() != 0 {
		t.Fatalf("arena holds %d keys after formRuns", a.Arena().InUse())
	}
}

func checkFormRunsUnshuffled(t *testing.T, mem int, keys []int64, l int) {
	a := newTestArray(t, mem, 8)
	g, err := checkGeometry(a)
	if err != nil {
		t.Fatal(err)
	}
	in := loadExactInput(t, a, keys)
	runs, err := formRunsUnshuffled(a, in, 0, len(keys), mem, g.sqM)
	if err != nil {
		t.Fatal(err)
	}
	defer freeAll(runs)
	partLen := mem / g.sqM
	rng := rand.New(rand.NewSource(int64(l)))
	groups := make([][]int64, g.sqM) // part j of every run
	for i, run := range unloadAll(t, runs) {
		want := slices.Clone(keys[i*mem : (i+1)*mem])
		slices.Sort(want)
		got := slices.Clone(run)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("run %d is not a permutation of its input segment", i)
		}
		parts := make([][]int64, g.sqM)
		for p := range parts {
			parts[p] = slices.Clone(run[p*partLen : (p+1)*partLen])
			groups[p] = append(groups[p], parts[p]...)
			slices.Sort(parts[p])
		}
		for k := 0; k < 256; k++ {
			x := want[rng.Intn(mem)] // a key of the run, ties included
			if k%2 == 1 {
				x = int64(rng.Uint64()) // anywhere in the word
			}
			lo, hi := partLen, 0
			for _, part := range parts {
				c := sort.Search(len(part), func(k int) bool { return part[k] >= x })
				lo, hi = min(lo, c), max(hi, c)
			}
			if hi-lo > 1 {
				t.Fatalf("run %d: part counts below %d spread over %d..%d", i, x, lo, hi)
			}
		}
	}
	merged, backing, err := mergePartGroups(a, runs, partLen, g.sqM)
	if err != nil {
		t.Fatal(err)
	}
	defer freeAll(backing)
	stripes := map[*pdm.Stripe][]int64{}
	for i, keys := range unloadAll(t, backing) {
		stripes[backing[i]] = keys
	}
	for j, v := range merged {
		lj := make([]int64, 0, v.keys)
		for blk := 0; blk < v.keys/g.b; blk++ {
			at := (v.startBlk + blk*v.strideBlk) * g.b
			lj = append(lj, stripes[v.s][at:at+g.b]...)
		}
		slices.Sort(groups[j])
		assertBlockExact(t, fmt.Sprintf("L_%d", j), lj, groups[j], g.b)
	}
	if a.Arena().InUse() != 0 {
		t.Fatalf("arena holds %d keys after passes 1 and 2", a.Arena().InUse())
	}
}
