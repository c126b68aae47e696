package pdm

import (
	"errors"
	"slices"
	"testing"
)

func TestArenaAllocFree(t *testing.T) {
	ar := NewArena(100)
	b1, err := ar.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if ar.InUse() != 60 {
		t.Fatalf("InUse = %d, want 60", ar.InUse())
	}
	if _, err := ar.Alloc(50); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("over-alloc: err = %v, want ErrMemoryExceeded", err)
	}
	b2, err := ar.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Peak() != 100 {
		t.Fatalf("Peak = %d, want 100", ar.Peak())
	}
	ar.Free(b1)
	ar.Free(b2)
	if ar.InUse() != 0 {
		t.Fatalf("InUse after frees = %d, want 0", ar.InUse())
	}
	if ar.Peak() != 100 {
		t.Fatalf("Peak after frees = %d, want 100", ar.Peak())
	}
	if ar.Capacity() != 100 {
		t.Fatalf("Capacity = %d, want 100", ar.Capacity())
	}
}

func TestArenaNegativeAlloc(t *testing.T) {
	ar := NewArena(10)
	if _, err := ar.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestArenaUnderflowPanics(t *testing.T) {
	ar := NewArena(10)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	ar.Free(make([]int64, 5))
}

func TestArenaPhases(t *testing.T) {
	ar := NewArena(100)
	ar.SetPhase("runs")
	b1 := ar.MustAlloc(30)
	ar.Free(b1)
	ar.SetPhase("cleanup")
	b2 := ar.MustAlloc(70)
	ar.Free(b2)
	ar.SetPhase("")
	peaks := ar.PhasePeaks()
	if len(peaks) != 2 {
		t.Fatalf("PhasePeaks = %v, want 2 entries", peaks)
	}
	if peaks[0] != "cleanup=70" || peaks[1] != "runs=30" {
		t.Fatalf("PhasePeaks = %v", peaks)
	}
	ar.ResetPeak()
	if ar.Peak() != 0 {
		t.Fatalf("Peak after reset = %d, want 0", ar.Peak())
	}
	if len(ar.PhasePeaks()) != 0 {
		t.Fatalf("phases survived reset: %v", ar.PhasePeaks())
	}
}

func TestArenaMustAllocPanics(t *testing.T) {
	ar := NewArena(1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAlloc over capacity did not panic")
		}
	}()
	ar.MustAlloc(2)
}

func TestArenaZeroed(t *testing.T) {
	ar := NewArena(10)
	buf := ar.MustAlloc(10)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("buf[%d] = %d, want 0", i, v)
		}
	}
}

func TestArenaReserveRelease(t *testing.T) {
	// The scheduler's sub-budgeting: whole job envelopes are carved from
	// a ledger arena without materializing buffers.
	ledger := NewArena(100)
	if err := ledger.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := ledger.Reserve(40); err != nil {
		t.Fatal(err)
	}
	if err := ledger.Reserve(1); err == nil {
		t.Fatal("over-reservation accepted")
	}
	if got := ledger.InUse(); got != 100 {
		t.Fatalf("InUse = %d, want 100", got)
	}
	ledger.Release(40)
	// Reservations and allocations share one accounting.
	buf, err := ledger.Alloc(30)
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Reserve(11); err == nil {
		t.Fatal("reservation past alloc+reserve accepted")
	}
	ledger.Free(buf)
	ledger.Release(60)
	if got := ledger.InUse(); got != 0 {
		t.Fatalf("InUse after drain = %d", got)
	}
	if got := ledger.Peak(); got != 100 {
		t.Fatalf("Peak = %d, want 100", got)
	}
	if err := ledger.Reserve(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestArenaReleaseUnderflowPanics(t *testing.T) {
	ar := NewArena(10)
	if err := ar.Reserve(5); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	ar.Release(6)
}

// TestArenaAllocReuse: Free releases the keys and keeps the buffer, and
// Alloc hands back the smallest kept buffer that holds the request,
// resliced and zeroed; a refused Alloc is counted and takes nothing; an
// Alloc that makes a buffer first drops kept ones until they fit the
// capacity beside the keys in use, the smallest one whose loss suffices
// going first, else the largest.
func TestArenaAllocReuse(t *testing.T) {
	ar := NewArena(100)
	a := ar.MustAlloc(10)
	for i := range a {
		a[i] = int64(i + 1)
	}
	ar.Free(a)
	if ar.InUse() != 0 {
		t.Fatalf("InUse = %d after Free, want 0", ar.InUse())
	}
	if b := ar.MustAlloc(12); &b[0] == &a[0] {
		t.Fatal("Alloc(12) reused a 10-key buffer")
	} else {
		ar.Free(b)
	}
	b := ar.MustAlloc(10)
	if &b[0] != &a[0] {
		t.Fatal("Alloc(10) did not reuse the freed 10-key buffer")
	}
	if slices.ContainsFunc(b, func(v int64) bool { return v != 0 }) {
		t.Fatalf("reused buffer not zeroed: %v", b)
	}
	if _, err := ar.Alloc(91); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("Alloc past capacity: err = %v, want ErrMemoryExceeded", err)
	}
	if ar.Refused() != 1 || ar.InUse() != 10 {
		t.Fatalf("Refused = %d, InUse = %d after one refused Alloc, want 1 and 10", ar.Refused(), ar.InUse())
	}
	ar.Free(b)
	if c := ar.MustAlloc(5); len(c) != 5 || &c[0] != &a[0] {
		t.Fatal("Alloc(5) did not reuse the smallest kept buffer that holds it")
	} else {
		ar.Free(c)
	}
	made := ar.made
	x := ar.MustAlloc(60) // nothing kept holds 60 or 40 keys
	y := ar.MustAlloc(40)
	if ar.made != made+100 {
		t.Fatalf("made %d keys for two fresh Allocs of 100, want %d", ar.made-made, 100)
	}
	keptCaps := func(want ...int) {
		t.Helper()
		var caps []int
		for _, k := range ar.kept {
			caps = append(caps, cap(k))
		}
		slices.Sort(caps)
		if !slices.Equal(caps, want) || ar.keptKeys+ar.InUse() > ar.Capacity() {
			t.Fatalf("kept %v (%d keys), InUse %d; want %v, at most %d keys with those in use",
				caps, ar.keptKeys, ar.InUse(), want, ar.Capacity())
		}
	}
	// Making y's 40 keys beside x's 60 left no room for the 10- and 12-key
	// buffers; neither made room alone, so the larger went first.
	keptCaps()
	ar.Free(x)
	ar.Free(y)
	keptCaps(40, 60) // Free keeps them all
	ar = NewArena(100)
	small := [][]int64{ar.MustAlloc(5), ar.MustAlloc(20), ar.MustAlloc(30)}
	for _, buf := range small {
		ar.Free(buf)
	}
	x = ar.MustAlloc(60) // 55 kept + 60 > 100: the 20-key buffer alone makes room
	keptCaps(5, 30)
	ar.Free(x)
	y = ar.MustAlloc(90) // 95 kept + 90: none makes room alone; the 60 goes, then the 30
	keptCaps(5)
	ar.Free(y)
}
