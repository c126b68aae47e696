package pdm

import (
	"errors"
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

// TestArenaTakeRecycle: Take reserves like Alloc and hands back the
// smallest buffer Recycle kept that holds the request, resliced; Recycle
// releases the keys whether or not it keeps the buffer, and keeps at most
// the arena's capacity in buffers, dropping the least recently recycled.
func TestArenaTakeRecycle(t *testing.T) {
	ar := NewArena(100)
	a, err := ar.Take(10)
	if err != nil {
		t.Fatal(err)
	}
	if ar.InUse() != 10 {
		t.Fatalf("InUse = %d after Take(10), want 10", ar.InUse())
	}
	a[0] = 7
	ar.Recycle(a)
	if ar.InUse() != 0 {
		t.Fatalf("InUse = %d after Recycle, want 0", ar.InUse())
	}
	if b, _ := ar.Take(12); &b[0] == &a[0] {
		t.Fatal("Take(12) reused a 10-key buffer")
	} else {
		ar.Recycle(b)
	}
	b, err := ar.Take(10)
	if err != nil {
		t.Fatal(err)
	}
	if &b[0] != &a[0] || b[0] != 7 {
		t.Fatal("Take(10) did not reuse the recycled 10-key buffer as it was")
	}
	if _, err := ar.Take(91); err == nil {
		t.Fatal("Take past capacity succeeded")
	}
	if ar.Refused() != 1 {
		t.Fatalf("Refused = %d after one refused Take, want 1", ar.Refused())
	}
	ar.Recycle(b)
	if c, _ := ar.Take(5); len(c) != 5 || &c[0] != &a[0] {
		t.Fatal("Take(5) did not reuse the smallest kept buffer that holds it")
	} else {
		ar.Recycle(c)
	}
	made := ar.made
	x, _ := ar.Take(60) // nothing kept holds 60 or 40 keys
	y, _ := ar.Take(40)
	if ar.made != made+100 {
		t.Fatalf("made %d keys for two fresh Takes of 100, want %d", ar.made-made, 100)
	}
	ar.Recycle(x)
	ar.Recycle(y) // 12 + 10 + 60 + 40 > 100: the 12- and 10-key buffers go
	if len(ar.kept) != 2 || ar.keptKeys != 100 || &ar.kept[1][0] != &y[0] || ar.InUse() != 0 {
		t.Fatalf("kept %d buffers of %d keys (want 2 of 100), InUse %d (want 0)", len(ar.kept), ar.keptKeys, ar.InUse())
	}
}
