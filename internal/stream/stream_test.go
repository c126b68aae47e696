package stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pdm"
)

// newArray builds a small PDM with the given pipeline depths.
func newArray(t *testing.T, prefetch, writeBehind int) *pdm.Array {
	t.Helper()
	a, err := pdm.New(pdm.Config{
		D: 4, B: 8, Mem: 64,
		Pipeline: pdm.PipelineConfig{Prefetch: prefetch, WriteBehind: writeBehind},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// loadStripe creates a stripe holding 0..n-1.
func loadStripe(t *testing.T, a *pdm.Array, n int) *pdm.Stripe {
	t.Helper()
	s, err := a.NewStripe(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	if err := s.Load(data); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReaderMatchesSynchronousAccounting(t *testing.T) {
	const n = 64 * 4
	for _, depth := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("prefetch=%d", depth), func(t *testing.T) {
			a := newArray(t, depth, 0)
			s := loadStripe(t, a, n)
			a.ResetStats()
			a.EnableTrace()
			r, err := NewStripeReader(s, 0, n, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			buf := make([]int64, 64)
			got := make([]int64, 0, n)
			for off := 0; off < n; off += len(buf) {
				if err := r.FillFlat(buf); err != nil {
					t.Fatal(err)
				}
				got = append(got, buf...)
			}
			for i, k := range got {
				if k != int64(i) {
					t.Fatalf("key %d = %d", i, k)
				}
			}
			if err := r.FillFlat(buf); !errors.Is(err, ErrExhausted) {
				t.Fatalf("read past end: err = %v, want ErrExhausted", err)
			}
			st := a.Stats()
			// One pass of reads: n/(D·B) = 4*64/32 = 8 steps, 32 blocks.
			if st.ReadSteps != 8 || st.BlocksRead != 32 {
				t.Fatalf("stats = %+v, want 8 read steps / 32 blocks", st)
			}
			// Trace: one entry per chunk, regardless of pipelining.
			if got := len(a.Trace()); got != 4 {
				t.Fatalf("trace length = %d, want 4", got)
			}
			if hs := st.PrefetchHits + st.PrefetchStalls; depth > 0 && hs != 4 {
				t.Fatalf("prefetch hit+stall = %d, want 4", hs)
			} else if depth == 0 && hs != 0 {
				t.Fatalf("synchronous reader recorded prefetch counters: %+v", st)
			}
		})
	}
}

func TestWriterMatchesSynchronousAccounting(t *testing.T) {
	const n = 64 * 4
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("writebehind=%d", depth), func(t *testing.T) {
			a := newArray(t, 0, depth)
			dst, err := a.NewStripe(n)
			if err != nil {
				t.Fatal(err)
			}
			a.EnableTrace()
			w, err := NewWriter(a)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]int64, 64)
			for off := 0; off < n; off += 64 {
				for i := range buf {
					buf[i] = int64(off + i)
				}
				addrs, err := dst.AppendAddrs(nil, off, 64)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WriteFlat(addrs, buf); err != nil {
					t.Fatal(err)
				}
				// The writer must have copied: clobber the buffer.
				for i := range buf {
					buf[i] = -1
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st := a.Stats()
			if st.WriteSteps != 8 || st.BlocksWritten != 32 {
				t.Fatalf("stats = %+v, want 8 write steps / 32 blocks", st)
			}
			if got := len(a.Trace()); got != 4 {
				t.Fatalf("trace length = %d, want 4", got)
			}
			out, err := dst.Unload()
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range out {
				if k != int64(i) {
					t.Fatalf("key %d = %d after write-behind", i, k)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal("second Close not idempotent:", err)
			}
		})
	}
}

func TestPipeTransforms(t *testing.T) {
	const n = 64 * 8
	for _, cfg := range []pdm.PipelineConfig{{}, {Prefetch: 2, WriteBehind: 2}} {
		t.Run(fmt.Sprintf("%+v", cfg), func(t *testing.T) {
			a, err := pdm.New(pdm.Config{D: 4, B: 8, Mem: 64, Pipeline: cfg})
			if err != nil {
				t.Fatal(err)
			}
			src := loadStripe(t, a, n)
			dst, err := a.NewStripe(n)
			if err != nil {
				t.Fatal(err)
			}
			a.ResetStats()
			buf := a.Arena().MustAlloc(64)
			err = Pipe(src, dst, buf, func(off int, chunk []int64) error {
				for i := range chunk {
					chunk[i] *= 2
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			a.Arena().Free(buf)
			out, err := dst.Unload()
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range out {
				if k != int64(2*i) {
					t.Fatalf("key %d = %d, want %d", i, k, 2*i)
				}
			}
			st := a.Stats()
			if st.ReadSteps != 16 || st.WriteSteps != 16 {
				t.Fatalf("stats = %+v, want 16 read and 16 write steps (one pass)", st)
			}
		})
	}
}

// faultDisk wraps a Disk and fails a chosen block operation.
type faultDisk struct {
	pdm.Disk
	mu        sync.Mutex
	failRead  int // block offset to fail reads at, -1 to disable
	failWrite int
	boom      error
}

func (d *faultDisk) ReadBlock(off int, dst []int64) error {
	d.mu.Lock()
	fail := d.failRead == off
	d.mu.Unlock()
	if fail {
		return d.boom
	}
	return d.Disk.ReadBlock(off, dst)
}

func (d *faultDisk) WriteBlock(off int, src []int64) error {
	d.mu.Lock()
	fail := d.failWrite == off
	d.mu.Unlock()
	if fail {
		return d.boom
	}
	return d.Disk.WriteBlock(off, src)
}

func TestReaderSurfacesPrefetchError(t *testing.T) {
	boom := errors.New("boom")
	disks := make([]pdm.Disk, 4)
	for i := range disks {
		disks[i] = pdm.NewMemDisk(8)
	}
	fd := &faultDisk{Disk: disks[1], failRead: -1, failWrite: -1, boom: boom}
	disks[1] = fd
	a, err := pdm.NewWithDisks(pdm.Config{D: 4, B: 8, Mem: 64,
		Pipeline: pdm.PipelineConfig{Prefetch: 2}}, disks)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 * 4
	s := loadStripe(t, a, n)
	// Fail a block in the third chunk: the error must arrive at the Fill of
	// that chunk (not deadlock, not crash the earlier chunks).
	fd.mu.Lock()
	fd.failRead = 4 // row 4 on disk 1 = block index 17 → chunk 2
	fd.mu.Unlock()
	r, err := NewStripeReader(s, 0, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]int64, 64)
	sawErr := false
	for i := 0; i < 4; i++ {
		if err := r.FillFlat(buf); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("chunk %d: err = %v, want the injected fault", i, err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected prefetch fault never surfaced")
	}
	// Sticky and still no deadlock.
	if err := r.FillFlat(buf); !errors.Is(err, boom) {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestWriterSurfacesFlushError(t *testing.T) {
	boom := errors.New("boom")
	disks := make([]pdm.Disk, 4)
	for i := range disks {
		disks[i] = pdm.NewMemDisk(8)
	}
	fd := &faultDisk{Disk: disks[1], failRead: -1, failWrite: 2, boom: boom}
	disks[1] = fd
	a, err := pdm.NewWithDisks(pdm.Config{D: 4, B: 8, Mem: 64,
		Pipeline: pdm.PipelineConfig{WriteBehind: 1}}, disks)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := a.NewStripe(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(a)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, 64)
	var wErr error
	for off := 0; off < 64*4 && wErr == nil; off += 64 {
		addrs, err := dst.AppendAddrs(nil, off, 64)
		if err != nil {
			t.Fatal(err)
		}
		wErr = w.WriteFlat(addrs, buf)
	}
	if cerr := w.Close(); wErr == nil {
		wErr = cerr
	}
	if !errors.Is(wErr, boom) {
		t.Fatalf("injected write fault never surfaced: %v", wErr)
	}
}

func TestReaderCloseMidStreamDoesNotLeakOrDeadlock(t *testing.T) {
	a := newArray(t, 3, 0)
	const n = 64 * 8
	s := loadStripe(t, a, n)
	r, err := NewStripeReader(s, 0, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, 64)
	if err := r.FillFlat(buf); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if got := a.Arena().InUse(); got != 0 {
		t.Fatalf("arena holds %d keys after Close, want 0", got)
	}
}

func TestConcurrentReaderWriterUnderRace(t *testing.T) {
	// One goroutine streams reads from src while another streams writes to
	// dst on the same array — the shape of every pipelined pass.  Run with
	// -race to check the shared accounting state.
	a, err := pdm.New(pdm.Config{D: 4, B: 8, Mem: 64,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 * 8
	src := loadStripe(t, a, n)
	dst, err := a.NewStripe(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		r, err := NewStripeReader(src, 0, n, 64)
		if err != nil {
			errs <- err
			return
		}
		defer r.Close()
		buf := make([]int64, 64)
		for off := 0; off < n; off += len(buf) {
			if err := r.FillFlat(buf); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		w, err := NewWriter(a)
		if err != nil {
			errs <- err
			return
		}
		buf := make([]int64, 64)
		for off := 0; off < n; off += 64 {
			addrs, err := dst.AppendAddrs(nil, off, 64)
			if err != nil {
				errs <- err
				return
			}
			if err := w.WriteFlat(addrs, buf); err != nil {
				errs <- err
				return
			}
		}
		if err := w.Close(); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.BlocksRead != n/8 || st.BlocksWritten != n/8 {
		t.Fatalf("stats = %+v, want %d blocks each way", st, n/8)
	}
}

func TestReadAsyncOverlapsAndCharges(t *testing.T) {
	for _, depth := range []int{0, 2} {
		a := newArray(t, depth, 0)
		s := loadStripe(t, a, 64)
		a.ResetStats()
		addrs, err := s.AppendAddrs(nil, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		bufs := make([][]int64, len(addrs))
		flat := make([]int64, 64)
		for i := range bufs {
			bufs[i] = flat[i*8 : (i+1)*8]
		}
		x, err := ReadAsync(a, addrs, bufs)
		if err != nil {
			t.Fatal(err)
		}
		// Charged at issue, before Wait.
		if st := a.Stats(); st.ReadSteps != 2 {
			t.Fatalf("depth %d: read steps at issue = %d, want 2", depth, st.ReadSteps)
		}
		if err := x.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := x.Wait(); err != nil {
			t.Fatal("second Wait:", err)
		}
		for i, k := range flat {
			if k != int64(i) {
				t.Fatalf("depth %d: key %d = %d", depth, i, k)
			}
		}
	}
}

func TestReaderRejectsWrongBufferCount(t *testing.T) {
	a := newArray(t, 2, 0)
	s := loadStripe(t, a, 64)
	r, err := NewStripeReader(s, 0, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.FillFlat(make([]int64, 32)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// TestListsReusedAfterAbandonedReader: a Reader closed with chunks still
// prefetched hands its lists on through the free list mid-stream.  The Readers
// and Writers that take those lists next must charge exactly their own
// addresses: a copy of the stripe traces the source's blocks in order, then
// the destination's.
func TestListsReusedAfterAbandonedReader(t *testing.T) {
	a := newArray(t, 2, 2)
	const n = 64 * 8
	src := loadStripe(t, a, n)
	buf := make([]int64, 8)
	for round := range 20 {
		r, err := NewStripeReader(src, 0, n, 8) // one block a chunk: many in flight
		if err != nil {
			t.Fatal(err)
		}
		for range 3 { // the buffers come back rotated
			if err := r.FillFlat(buf); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
		dst, err := a.NewStripe(n)
		if err != nil {
			t.Fatal(err)
		}
		a.EnableTrace()
		if err := Pipe(src, dst, make([]int64, 16), nil); err != nil {
			t.Fatal(err)
		}
		var reads, writes []pdm.BlockAddr
		for _, op := range a.Trace() {
			if op.Write {
				writes = append(writes, op.Addrs...)
			} else {
				reads = append(reads, op.Addrs...)
			}
		}
		a.DisableTrace()
		for j := range src.Blocks() {
			if reads[j] != src.BlockAddr(j) || writes[j] != dst.BlockAddr(j) {
				t.Fatalf("round %d: block %d charged as read %v and write %v, want %v and %v",
					round, j, reads[j], writes[j], src.BlockAddr(j), dst.BlockAddr(j))
			}
		}
		dst.Free()
	}
}
