package stream

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/pdm"
)

// slotCfg is a geometry whose slot (pdm.SlotRows rows of D blocks) splits
// evenly into thirds: D = 3, so a slot is 6 blocks.
var slotCfg = pdm.Config{D: 3, B: 4, Mem: 48}

// slotArray builds a slotCfg array on backend with the given depths.
func slotArray(t *testing.T, backend pdm.Backend, prefetch, writeBehind int) *pdm.Array {
	t.Helper()
	cfg := slotCfg
	cfg.Pipeline = pdm.PipelineConfig{Prefetch: prefetch, WriteBehind: writeBehind}
	disks, err := backend.NewDisks(t.TempDir(), cfg.D, cfg.B)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pdm.NewWithDisks(cfg, disks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() }) //nolint:errcheck // test teardown
	return a
}

// chunkPlan cuts blocks 0..nb-1 of s into chunks of size blocks (the last
// may be shorter), with an empty chunk first, last, and after every
// second chunk.
func chunkPlan(s *pdm.Stripe, size int) [][]pdm.BlockAddr {
	plan := [][]pdm.BlockAddr{nil}
	for j, k := 0, 0; j < s.Blocks(); k++ {
		var c []pdm.BlockAddr
		for ; len(c) < size && j < s.Blocks(); j++ {
			c = append(c, s.BlockAddr(j))
		}
		plan = append(plan, c)
		if k%2 == 1 {
			plan = append(plan, []pdm.BlockAddr{})
		}
	}
	return append(plan, nil)
}

// readRun is what streaming a plan delivered and charged.
type readRun struct {
	data          [][]int64
	blocks, steps int64
	trace         []pdm.TraceOp
}

// streamPlan loads a stripe of nb blocks on a, then reads plan(stripe)
// through a Reader (or, at prefetch 0, the plain synchronous ReadV loop
// when sync is set), checking the arena drains.
func streamPlan(t *testing.T, a *pdm.Array, nb int, plan func(*pdm.Stripe) [][]pdm.BlockAddr, sync bool) readRun {
	t.Helper()
	s := loadStripe(t, a, nb*a.B())
	chunks := plan(s)
	a.ResetStats()
	a.EnableTrace()
	var run readRun
	bufsOf := func(c []pdm.BlockAddr) [][]int64 {
		bufs := make([][]int64, len(c))
		for i := range bufs {
			bufs[i] = make([]int64, a.B())
		}
		return bufs
	}
	if sync {
		for _, c := range chunks {
			bufs := bufsOf(c)
			if err := a.ReadV(c, bufs); err != nil {
				t.Fatal(err)
			}
			run.data = append(run.data, slices.Concat(bufs...))
		}
	} else {
		r, err := NewReader(a, len(chunks), func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr { return append(dst, chunks[t]...) })
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			bufs := bufsOf(c)
			if err := r.Fill(bufs); err != nil {
				t.Fatal(err)
			}
			run.data = append(run.data, slices.Concat(bufs...))
		}
		if err := r.Fill(nil); err != ErrExhausted {
			t.Fatalf("read past the end: err = %v, want ErrExhausted", err)
		}
		r.Close()
	}
	if got := a.Arena().InUse(); got != 0 {
		t.Fatalf("arena holds %d keys after the stream, want 0", got)
	}
	st := a.Stats()
	run.blocks, run.steps, run.trace = st.BlocksRead, st.ReadSteps, a.Trace()
	return run
}

// TestReaderSlotsMatchSynchronousReads: a Reader at prefetch 0–3 whose
// chunks are one row, a third of a slot, or a slot and a half — so slots
// hold several chunks, chunks span slots, and empty chunks fall anywhere —
// delivers the data, charges the blocks and steps, and records the trace
// of the synchronous ReadV loop, on every backend, and returns every slot
// to the arena.
func TestReaderSlotsMatchSynchronousReads(t *testing.T) {
	slot := pdm.SlotRows * slotCfg.D
	const nb = 40 // not a multiple of any chunk size below
	for _, backend := range []pdm.Backend{pdm.BackendMem, pdm.BackendFile, pdm.BackendMmap} {
		for name, size := range map[string]int{"row": slotCfg.D, "third": slot / 3, "slot+half": slot * 3 / 2} {
			plan := func(s *pdm.Stripe) [][]pdm.BlockAddr { return chunkPlan(s, size) }
			want := streamPlan(t, slotArray(t, backend, 0, 0), nb, plan, true)
			for depth := range 4 {
				t.Run(fmt.Sprintf("%s/%s/prefetch=%d", backend, name, depth), func(t *testing.T) {
					got := streamPlan(t, slotArray(t, backend, depth, 0), nb, plan, false)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("streamed read differs from the synchronous loop:\ngot  %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// TestReaderCloseWithSharedSlot: closing a Reader after its first chunk,
// while the slot that chunk came from still holds the next chunks, neither
// deadlocks nor leaks — the arena drains — on copying and zero-copy
// arrays.
func TestReaderCloseWithSharedSlot(t *testing.T) {
	slot := pdm.SlotRows * slotCfg.D
	for _, backend := range []pdm.Backend{pdm.BackendFile, pdm.BackendMmap} {
		for _, size := range []int{slot / 3, slot * 3 / 2} {
			for _, depth := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/chunk=%d/prefetch=%d", backend, size, depth), func(t *testing.T) {
					a := slotArray(t, backend, depth, 0)
					s := loadStripe(t, a, 8*slot*a.B())
					chunks := chunkPlan(s, size)[1:] // start with a non-empty chunk
					r, err := NewReader(a, len(chunks), func(t int, dst []pdm.BlockAddr) []pdm.BlockAddr { return append(dst, chunks[t]...) })
					if err != nil {
						t.Fatal(err)
					}
					if err := r.FillFlat(make([]int64, size*a.B())); err != nil {
						t.Fatal(err)
					}
					closed := make(chan struct{})
					go func() {
						r.Close()
						close(closed)
					}()
					select {
					case <-closed:
					case <-time.After(10 * time.Second):
						t.Fatal("Close with a shared slot deadlocked")
					}
					if got := a.Arena().InUse(); got != 0 {
						t.Fatalf("arena holds %d keys after Close, want 0", got)
					}
				})
			}
		}
	}
}

// TestWriterPacksShortWrites: writes of 0, 1, 2, 5 and 7 blocks, which
// share slots and span them, land exactly as synchronous WriteV calls put
// them, with the same charges and trace, at every write-behind depth; the
// blocks are on disk after Flush, and Close returns the slots.
func TestWriterPacksShortWrites(t *testing.T) {
	sizes := []int{1, 0, 2, 5, 7, 1, 1, 2}
	type result struct {
		keys          []int64
		blocks, steps int64
		trace         []pdm.TraceOp
	}
	write := func(t *testing.T, depth int) result {
		a := slotArray(t, pdm.BackendFile, 0, depth)
		total := 0
		for _, n := range sizes {
			total += n
		}
		dst, err := a.NewStripeSkew(total*a.B(), 1)
		if err != nil {
			t.Fatal(err)
		}
		a.EnableTrace()
		w, err := NewWriter(a)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for _, n := range sizes {
			src := make([]int64, n*a.B())
			for i := range src {
				src[i] = int64(at*a.B() + i)
			}
			addrs, err := dst.AppendAddrs(nil, at*a.B(), len(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteFlat(addrs, src); err != nil {
				t.Fatal(err)
			}
			at += n
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		keys, err := dst.Unload()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := a.Arena().InUse(); got != 0 {
			t.Fatalf("arena holds %d keys after Close, want 0", got)
		}
		st := a.Stats()
		return result{keys, st.BlocksWritten, st.WriteSteps, a.Trace()}
	}
	want := write(t, 0)
	for i, k := range want.keys {
		if k != int64(i) {
			t.Fatalf("synchronous key %d = %d", i, k)
		}
	}
	for _, depth := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("writebehind=%d", depth), func(t *testing.T) {
			if got := write(t, depth); !reflect.DeepEqual(got, want) {
				t.Fatalf("write-behind differs from synchronous writes:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestWriterWriteFlatAllocatesNothing: on a file array a write-behind
// WriteFlat — the staging copy, the slot's addresses, the flusher's
// transfer in runs — allocates nothing once the Writer is running.
func TestWriterWriteFlatAllocatesNothing(t *testing.T) {
	a := slotArray(t, pdm.BackendFile, 0, 2)
	dst, err := a.NewStripe(2 * a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := dst.AppendAddrs(nil, 0, dst.Len())
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int64, dst.Len())
	w, err := NewWriter(a)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteFlat(addrs, src); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.WriteFlat(addrs, src); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteFlat allocates %v times per request, want 0", allocs)
	}
}
