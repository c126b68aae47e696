package stream

import (
	"context"
	"errors"
	"math/rand"
	"slices"
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

// scatterPlan is a shuffled list of partition blocks over skewed partition
// stripes of uneven sizes: the irregular arrival order a distribution pass
// produces.  Each partition's blocks arrive in order; the partitions
// interleave.
type scatterPlan struct {
	sizes []int // blocks per partition
	order []int // the partition of each appended block
}

func newScatterPlan(seed int64) scatterPlan {
	rng := rand.New(rand.NewSource(seed))
	p := scatterPlan{sizes: []int{9, 1, 14, 6, 23, 11, 3}}
	for part, nb := range p.sizes {
		for blk := 0; blk < nb; blk++ {
			p.order = append(p.order, part)
		}
	}
	rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	return p
}

// run scatters the plan onto a, one bucket per partition, appending each
// block in two uneven pieces: block blk of partition part holds the word
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
	queued := make([]int, len(p.sizes))
	sc, err := NewScatter(a, len(p.sizes), func(part, words int) (pdm.BlockAddr, error) {
		if words != a.B() {
			t.Errorf("partition %d: a full block queued with %d words", part, words)
		}
		queued[part]++
		return stripes[part].BlockAddr(queued[part] - 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	appended := make([]int, len(p.sizes))
	blk := make([]int64, a.B())
	for _, part := range p.order {
		for i := range blk {
			blk[i] = int64(part<<16 | appended[part]<<8 | i)
		}
		appended[part]++
		if err := sc.Append(part, blk[:3]); err != nil {
			t.Fatal(err)
		}
		if err := sc.Append(part, blk[3:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	return stripes
}

// Every issued request holds at most one block per disk — one parallel
// step — and every block reaches its own address whatever the Append order.
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
			if peak, want := a.Arena().Peak(), a.Mem()+len(p.sizes)*a.B(); peak != want {
				t.Fatalf("zc=%v: peak %d, want M + buckets·B = %d", zc, peak, want)
			}
		}
	}
}

// The accounting is a pure function of the Append sequence: zero-copy and
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
	sc, err := NewScatter(a, 3, func(int, int) (pdm.BlockAddr, error) {
		t.Fatal("next called on an empty scatter")
		return pdm.BlockAddr{}, nil
	})
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

// stripeScatter is a one-bucket Scatter filling s block by block.
func stripeScatter(t *testing.T, s *pdm.Stripe) *Scatter {
	t.Helper()
	blk := 0
	sc, err := NewScatter(s.Array(), 1, func(_, _ int) (pdm.BlockAddr, error) {
		blk++
		return s.BlockAddr(blk - 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
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
		sc := stripeScatter(t, s)
		blk := make([]int64, a.B())
		for j := 0; j < 20; j++ { // past the 16-slot stage: steps were issued
			if err := sc.Append(0, blk); err != nil {
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
		if err := sc.Append(0, blk); !errors.Is(err, context.Canceled) {
			t.Fatalf("zc=%v: Append after cancel = %v (the error must stick)", zc, err)
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

// A disk write error surfaces from Append or Flush, sticks, charges nothing
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
		sc := stripeScatter(t, s)
		blk := make([]int64, a.B())
		var got error
		for j := 0; j < 32 && got == nil; j++ {
			got = sc.Append(0, blk)
		}
		if failOff == 7 && got != nil {
			t.Fatalf("row 7 failed during Append: %v", got)
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
		const buckets = 5
		need := a.Mem() + buckets*a.B()
		hog := a.Arena().MustAlloc(a.Config().ArenaCapacity() - need + 1)
		if _, err := NewScatter(a, buckets, nil); !errors.Is(err, pdm.ErrMemoryExceeded) {
			t.Fatalf("zc=%v: NewScatter with %d keys free = %v", zc, need-1, err)
		}
		a.Arena().Free(hog)
		if leak := a.Arena().InUse(); leak != 0 {
			t.Fatalf("zc=%v: failed NewScatter left %d arena keys", zc, leak)
		}
	}
}

// Flush zero-pads every partial carry and queues it after the full blocks,
// in bucket order, with its valid word count; Close returns the carries and
// the stage, whose sum is the peak.
func TestScatterFlushPadsPartialCarries(t *testing.T) {
	for _, zc := range []bool{false, true} {
		a := scatterArray(t, zc, nil)
		b := a.B()
		stripes := make([]*pdm.Stripe, 3)
		for i, nb := range []int{1, 1, 2} {
			s, err := a.NewStripeSkew(nb*b, i)
			if err != nil {
				t.Fatal(err)
			}
			stripes[i] = s
		}
		var calls [][2]int
		sc, err := NewScatter(a, 3, func(bkt, words int) (pdm.BlockAddr, error) {
			calls = append(calls, [2]int{bkt, words})
			blk := 0
			for _, c := range calls[:len(calls)-1] {
				if c[0] == bkt {
					blk++
				}
			}
			return stripes[bkt].BlockAddr(blk), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if used, want := a.Arena().InUse(), a.Mem()+3*b; used != want {
			t.Fatalf("zc=%v: NewScatter holds %d keys, want M + buckets·B = %d", zc, used, want)
		}
		words := func(base, n int) []int64 {
			w := make([]int64, n)
			for i := range w {
				w[i] = int64(base + i + 1)
			}
			return w
		}
		// Bucket 2 fills a block, then leaves 3 words over the stale carry;
		// bucket 0 leaves 5; bucket 1 gets nothing.
		for _, ap := range []struct{ bkt, base, n int }{{2, 100, b}, {0, 200, 5}, {2, 300, 3}} {
			if err := sc.Append(ap.bkt, words(ap.base, ap.n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := [][2]int{{2, b}, {0, 5}, {2, 3}}; !slices.Equal(calls, want) {
			t.Fatalf("zc=%v: next called with %v, want %v", zc, calls, want)
		}
		for bkt, want := range map[int][]int64{
			0: append(words(200, 5), make([]int64, b-5)...),
			2: append(append(words(100, b), words(300, 3)...), make([]int64, b-3)...),
		} {
			got, err := stripes[bkt].Unload()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("zc=%v: bucket %d holds %v, want %v", zc, bkt, got, want)
			}
		}
		sc.Close()
		if used := a.Arena().InUse(); used != 0 {
			t.Fatalf("zc=%v: %d arena keys left after Close", zc, used)
		}
		if peak, want := a.Arena().Peak(), a.Mem()+3*b; peak != want {
			t.Fatalf("zc=%v: peak %d, want M + buckets·B = %d", zc, peak, want)
		}
	}
}

// An error from next sticks: the Append that met it and every later call
// return it, and next is not called again.
func TestScatterNextErrorSticks(t *testing.T) {
	a := scatterArray(t, false, nil)
	s, err := a.NewStripe(4 * a.B())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	sc, err := NewScatter(a, 2, func(_, _ int) (pdm.BlockAddr, error) {
		if calls++; calls == 2 {
			return pdm.BlockAddr{}, boom
		}
		return s.BlockAddr(calls - 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	blk := make([]int64, a.B())
	if err := sc.Append(0, blk); err != nil {
		t.Fatal(err)
	}
	if err := sc.Append(1, blk); !errors.Is(err, boom) {
		t.Fatalf("Append that met the error = %v", err)
	}
	if err := sc.Append(0, blk[:1]); !errors.Is(err, boom) {
		t.Fatalf("later Append = %v (the error must stick)", err)
	}
	if err := sc.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v (the error must stick)", err)
	}
	if calls != 2 {
		t.Fatalf("next called %d times, want 2", calls)
	}
	if st := a.Stats(); st.BlocksWritten != 0 {
		t.Fatalf("a failed scatter wrote %d blocks", st.BlocksWritten)
	}
}
