package stream

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pdm"
)

// scatterArray builds a traced D=4, B=8 array with a 16-slot stage on
// mmap disks (zero-copy) or in-memory ones (copying); wrap, if given,
// decorates each disk (which also forces the copying path).
func scatterArray(t *testing.T, zc bool, wrap func(d int, disk pdm.Disk) pdm.Disk) *pdm.Array {
	t.Helper()
	disks := pdm.NewMemDisks(4, 8)
	if zc {
		var err error
		if disks, err = pdm.NewMmapDisks(t.TempDir(), 4, 8); err != nil {
			t.Fatal(err)
		}
	}
	for d := range disks {
		if wrap != nil {
			disks[d] = wrap(d, disks[d])
		}
	}
	a, err := pdm.NewWithDisks(pdm.Config{D: 4, B: 8, Mem: 128}, disks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if zc && !a.ZeroCopy() {
		t.Skip("no zero-copy mmap disks on this platform")
	}
	a.EnableTrace()
	return a
}

// scatterPlan is a shuffled list of (partition, block) pairs over skewed
// partition stripes of uneven sizes: the irregular arrival order a
// distribution pass produces.
type scatterPlan struct {
	sizes []int    // blocks per partition
	order [][2]int // (partition, block) in Add order
}

func newScatterPlan(seed int64) scatterPlan {
	rng := rand.New(rand.NewSource(seed))
	p := scatterPlan{sizes: []int{9, 1, 14, 6, 23, 11, 3}}
	for part, nb := range p.sizes {
		for blk := 0; blk < nb; blk++ {
			p.order = append(p.order, [2]int{part, blk})
		}
	}
	rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	return p
}

// run scatters the plan onto a: block blk of partition part holds the word
// part<<16|blk<<8|i at position i.  It returns the partition stripes.
func (p scatterPlan) run(t *testing.T, a *pdm.Array) []*pdm.Stripe {
	t.Helper()
	stripes := make([]*pdm.Stripe, len(p.sizes))
	for part, nb := range p.sizes {
		s, err := a.NewStripeSkew(nb*a.B(), part)
		if err != nil {
			t.Fatal(err)
		}
		stripes[part] = s
	}
	sc, err := NewScatter(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	blk := make([]int64, a.B())
	for _, pb := range p.order {
		for i := range blk {
			blk[i] = int64(pb[0]<<16 | pb[1]<<8 | i)
		}
		if err := sc.Add(stripes[pb[0]].BlockAddr(pb[1]), blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	return stripes
}

// Every issued request holds at most one block per disk — one parallel
// step — and every block reaches its own address whatever the Add order.
func TestScatterOneBlockPerDiskAndRightAddresses(t *testing.T) {
	for _, zc := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			a := scatterArray(t, zc, nil)
			p := newScatterPlan(seed)
			stripes := p.run(t, a)
			st := a.Stats()
			if int(st.BlocksWritten) != len(p.order) || st.WriteSteps != int64(len(a.Trace())) {
				t.Fatalf("zc=%v seed %d: %d blocks in %d steps over %d requests, want %d blocks at one step a request",
					zc, seed, st.BlocksWritten, st.WriteSteps, len(a.Trace()), len(p.order))
			}
			for r, op := range a.Trace() {
				seen := map[int]bool{}
				for _, ad := range op.Addrs {
					if seen[ad.Disk] {
						t.Fatalf("zc=%v seed %d: request %d holds two blocks of disk %d: %v", zc, seed, r, ad.Disk, op.Addrs)
					}
					seen[ad.Disk] = true
				}
			}
			// 67 blocks on 4 disks cannot take fewer than 17 steps; the
			// 16-slot stage must keep it within a few of that.
			if st.WriteSteps > 22 {
				t.Errorf("zc=%v seed %d: %d write steps for %d blocks on 4 disks", zc, seed, st.WriteSteps, len(p.order))
			}
			for part, s := range stripes {
				got, err := s.Unload()
				if err != nil {
					t.Fatal(err)
				}
				for w, v := range got {
					if want := int64(part<<16 | (w/8)<<8 | w%8); v != want {
						t.Fatalf("zc=%v seed %d: partition %d word %d = %#x, want %#x", zc, seed, part, w, v, want)
					}
				}
			}
			if leak := a.Arena().InUse(); leak != 0 {
				t.Fatalf("zc=%v: %d arena keys left", zc, leak)
			}
			if peak := a.Arena().Peak(); peak != a.Mem() {
				t.Fatalf("zc=%v: stage peak %d, want M = %d", zc, peak, a.Mem())
			}
		}
	}
}

// The accounting is a pure function of the Add sequence: zero-copy and
// copying backends charge the same stats and record the same trace.
func TestScatterBackendsChargeIdentically(t *testing.T) {
	p := newScatterPlan(7)
	zc, cp := scatterArray(t, true, nil), scatterArray(t, false, nil)
	p.run(t, zc)
	p.run(t, cp)
	if zc.Stats() != cp.Stats() {
		t.Fatalf("stats differ:\nzero-copy %+v\ncopying   %+v", zc.Stats(), cp.Stats())
	}
	if !pdm.TracesEqual(zc.Trace(), cp.Trace()) {
		t.Fatal("traces differ between the zero-copy and copying backends")
	}
}

func TestScatterFlushOnEmptyIsNoOp(t *testing.T) {
	a := scatterArray(t, false, nil)
	sc, err := NewScatter(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	sc.Close() // idempotent
	if st := a.Stats(); st != (pdm.Stats{}) || len(a.Trace()) != 0 || a.Arena().InUse() != 0 {
		t.Fatalf("empty scatter left stats %+v, %d requests, %d arena keys", st, len(a.Trace()), a.Arena().InUse())
	}
}

// A canceled context rejects the next step before it is charged, on both
// backends, and Close still returns the stage.
func TestScatterCanceledContextChargesNothing(t *testing.T) {
	for _, zc := range []bool{false, true} {
		a := scatterArray(t, zc, nil)
		s, err := a.NewStripe(32 * a.B())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScatter(a)
		if err != nil {
			t.Fatal(err)
		}
		blk := make([]int64, a.B())
		for j := 0; j < 20; j++ { // past the 16-slot stage: steps were issued
			if err := sc.Add(s.BlockAddr(j), blk); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		a.BindContext(ctx)
		cancel()
		before, requests := a.Stats(), len(a.Trace())
		if before.WriteSteps == 0 {
			t.Fatal("no step issued before the cancel")
		}
		if err := sc.Flush(); !errors.Is(err, context.Canceled) {
			t.Fatalf("zc=%v: Flush after cancel = %v", zc, err)
		}
		if err := sc.Add(s.BlockAddr(20), blk); !errors.Is(err, context.Canceled) {
			t.Fatalf("zc=%v: Add after cancel = %v (the error must stick)", zc, err)
		}
		if a.Stats() != before || len(a.Trace()) != requests {
			t.Fatalf("zc=%v: the rejected step was charged: %+v → %+v", zc, before, a.Stats())
		}
		sc.Close()
		if leak := a.Arena().InUse(); leak != 0 {
			t.Fatalf("zc=%v: %d arena keys left after Close", zc, leak)
		}
	}
}

// A disk write error surfaces from Add or Flush, sticks, charges nothing
// for the failed request, and Close still returns the stage.
func TestScatterSurfacesDiskError(t *testing.T) {
	boom := errors.New("boom")
	for _, failOff := range []int{1, 7} { // inside the stream; only reached by Flush
		a := scatterArray(t, false, func(d int, disk pdm.Disk) pdm.Disk {
			if d != 2 {
				return disk
			}
			return &faultDisk{Disk: disk, failRead: -1, failWrite: failOff, boom: boom}
		})
		s, err := a.NewStripe(32 * a.B())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScatter(a)
		if err != nil {
			t.Fatal(err)
		}
		blk := make([]int64, a.B())
		var got error
		for j := 0; j < 32 && got == nil; j++ {
			got = sc.Add(s.BlockAddr(j), blk)
		}
		if failOff == 7 && got != nil {
			t.Fatalf("row 7 failed during Add: %v", got)
		}
		if got == nil {
			got = sc.Flush()
		}
		if !errors.Is(got, boom) {
			t.Fatalf("fail at row %d: injected fault never surfaced: %v", failOff, got)
		}
		before := a.Stats()
		if err := sc.Flush(); !errors.Is(err, boom) {
			t.Fatalf("error not sticky: %v", err)
		}
		if a.Stats() != before {
			t.Fatal("a failed scatter kept charging")
		}
		if before.BlocksWritten >= 32 {
			t.Fatalf("the failed request was charged: %d blocks", before.BlocksWritten)
		}
		sc.Close()
		if leak := a.Arena().InUse(); leak != 0 {
			t.Fatalf("%d arena keys left after Close", leak)
		}
	}
}

func TestScatterArenaExhaustion(t *testing.T) {
	for _, zc := range []bool{false, true} {
		a := scatterArray(t, zc, nil)
		hog := a.Arena().MustAlloc(a.Config().ArenaCapacity() - a.Mem() + 1)
		if _, err := NewScatter(a); !errors.Is(err, pdm.ErrMemoryExceeded) {
			t.Fatalf("zc=%v: NewScatter with %d keys free = %v", zc, a.Mem()-1, err)
		}
		a.Arena().Free(hog)
		if leak := a.Arena().InUse(); leak != 0 {
			t.Fatalf("zc=%v: failed NewScatter left %d arena keys", zc, leak)
		}
	}
}
