package repro

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func newTestMachine(t *testing.T, mem int) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Memory: 1000}); err == nil {
		t.Fatal("non-square memory accepted")
	}
	if _, err := NewMachine(MachineConfig{Memory: 1024, Disks: 7}); err == nil {
		t.Fatal("non-dividing disk count accepted")
	}
	m, err := NewMachine(MachineConfig{Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if m.Array().D() != 8 {
		t.Fatalf("default disks = %d, want 8 (C=4)", m.Array().D())
	}
}

func TestSortAllAlgorithms(t *testing.T) {
	m := newTestMachine(t, 256)
	for _, alg := range []Algorithm{
		ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected,
		SevenPassMesh,
	} {
		t.Run(alg.String(), func(t *testing.T) {
			keys := workload.Perm(1000, algSeed(alg)) // deliberately unaligned length
			want := append([]int64(nil), keys...)
			slices.Sort(want)
			rep, err := m.Sort(keys, alg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(keys, want) {
				t.Fatal("not sorted")
			}
			if rep.Algorithm != alg || rep.N != 1000 {
				t.Fatalf("report = %+v", rep)
			}
			if rep.PaddedN < 1000 || rep.PaddedN%256 != 0 {
				t.Fatalf("PaddedN = %d", rep.PaddedN)
			}
		})
	}
}

func TestSortAuto(t *testing.T) {
	m := newTestMachine(t, 256)
	for _, n := range []int{10, 300, 2000, 10000, 60000} {
		keys := workload.Uniform(n, -1000, 1000, int64(n))
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		rep, err := m.Sort(keys, Auto)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: not sorted", n)
		}
		if rep.Algorithm == Auto {
			t.Fatal("Auto not resolved to a concrete algorithm")
		}
	}
}

func TestPlanEscalatesWithN(t *testing.T) {
	m := newTestMachine(t, 1024)
	small := m.Plan(512)
	mid := m.Plan(1024 * 20)
	big := m.Plan(1024 * 1024)
	if small != MemOnePass {
		t.Fatalf("Plan(512) = %v, an in-memory input needs one pass, not three", small)
	}
	if mid == SevenPass {
		t.Fatalf("Plan(20M) = %v, should not need seven passes", mid)
	}
	if big != SevenPass && big != SixPassExpected {
		t.Fatalf("Plan(M^2) = %v", big)
	}
}

func TestCapacityOrdering(t *testing.T) {
	m := newTestMachine(t, 1024)
	c2 := m.Capacity(TwoPassExpected)
	c3 := m.Capacity(ThreePassLMM)
	c7 := m.Capacity(SevenPass)
	if !(c2 < c3 && c3 < c7) {
		t.Fatalf("capacities not ordered: 2-pass %d, 3-pass %d, 7-pass %d", c2, c3, c7)
	}
	if c3 != 1024*32 || c7 != 1024*1024 {
		t.Fatalf("capacities = %d, %d", c3, c7)
	}
}

func TestSortRejectsSentinel(t *testing.T) {
	m := newTestMachine(t, 256)
	if _, err := m.Sort([]int64{1, math.MaxInt64}, ThreePassLMM); err == nil {
		t.Fatal("MaxInt64 key accepted")
	}
}

func TestSortRejectsOversize(t *testing.T) {
	m := newTestMachine(t, 256)
	if _, err := m.Sort(make([]int64, 256*33), ThreePassLMM); err == nil {
		t.Fatal("input above M*sqrt(M) accepted for a three-pass algorithm")
	}
}

func TestSortInts(t *testing.T) {
	m := newTestMachine(t, 256)
	keys := workload.Uniform(5000, 0, (1<<20)-1, 9)
	want := append([]int64(nil), keys...)
	slices.Sort(want)
	rep, err := m.SortInts(keys, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, want) {
		t.Fatal("not sorted")
	}
	if rep.Passes <= 0 {
		t.Fatalf("passes = %v", rep.Passes)
	}
	if _, err := m.SortInts([]int64{-1}, 10); err == nil {
		t.Fatal("negative key accepted")
	}
	if _, err := m.SortInts([]int64{10}, 10); err == nil {
		t.Fatal("key = universe accepted")
	}
}

func TestFileBackedMachine(t *testing.T) {
	m, err := NewMachine(MachineConfig{Memory: 256, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys := workload.Perm(4096, 3)
	want := append([]int64(nil), keys...)
	slices.Sort(want)
	if _, err := m.Sort(keys, ThreePassLMM); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, want) {
		t.Fatal("file-backed sort incorrect")
	}
}

func TestSortQuickProperty(t *testing.T) {
	m := newTestMachine(t, 256)
	f := func(raw []int64, algRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		keys := make([]int64, len(raw))
		for i, v := range raw {
			if v == math.MaxInt64 {
				v--
			}
			keys[i] = v
		}
		algs := []Algorithm{ThreePassMesh, ThreePassLMM, TwoPassExpected, SevenPass}
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		if _, err := m.Sort(keys, algs[int(algRaw)%len(algs)]); err != nil {
			return false
		}
		return slices.Equal(keys, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmTable pins the one algorithm table's round trips: every
// short name parses, marshals back to itself, and has a paper name.
func TestAlgorithmTable(t *testing.T) {
	for _, name := range strings.Split(core.AlgNames(), "|") {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", name, err)
		}
		if text, _ := alg.MarshalText(); string(text) != name {
			t.Fatalf("%q marshals as %q", name, text)
		}
		if alg.String() == "" {
			t.Fatalf("empty paper name for %q", name)
		}
	}
	if alg, err := ParseAlgorithm(""); err != nil || alg != Auto {
		t.Fatalf("ParseAlgorithm(\"\") = %v, %v, want Auto", alg, err)
	}
	if _, err := ParseAlgorithm("bogus"); err == nil || !strings.Contains(err.Error(), core.AlgNames()) {
		t.Fatalf("unknown name error %v does not list the table's names", err)
	}
	if Algorithm("bogus").String() != `Alg("bogus")` {
		t.Fatal("unknown algorithm name")
	}
}

// algSeed salts a workload seed per algorithm: the algorithm's position in
// the facade's constant block, so the inputs stay what they were when
// Algorithm was an integer enum.
func algSeed(alg Algorithm) int64 {
	return int64(slices.Index([]Algorithm{Auto, ThreePassMesh, TwoPassMeshExpected, ThreePassLMM,
		TwoPassExpected, ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh, MemOnePass}, alg))
}
