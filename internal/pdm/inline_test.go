package pdm_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pdm"
	"repro/internal/stream"
)

// rowKeys is the content of stripe row r: one full parallel step of keys,
// distinct per (tag, row, position).
func rowKeys(a *pdm.Array, tag, r int) []int64 {
	w := make([]int64, a.StripeWidth())
	for i := range w {
		w[i] = int64(tag)<<40 | int64(r)<<16 | int64(i)
	}
	return w
}

// TestInlineTransferConcurrentCallers: transferV runs on its caller's
// goroutine, so the only concurrency a FileDisk sees is between callers.
// Here all of them hit one file array at once over disjoint stripes — a
// stream.Reader's prefetcher, a stream.Writer's flusher, and two direct
// ReadV/WriteV callers (one ascending, one descending) — while every write
// extends the files past the preallocation chunk (grow + the frontier CAS).
func TestInlineTransferConcurrentCallers(t *testing.T) {
	cfg := pdm.Config{D: 4, B: 8, Mem: 1024, Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}}
	disks, err := pdm.NewFileDisks(t.TempDir(), cfg.D, cfg.B)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pdm.NewWithDisks(cfg, disks)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dxb := a.StripeWidth()
	const srcRows, dstRows, directRows = 200, 300, 150 // 800 rows: three growBlocks chunks

	stripe := func(rows int) *pdm.Stripe {
		s, err := a.NewStripe(rows * dxb)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src, dst := stripe(srcRows), stripe(dstRows)
	direct := []*pdm.Stripe{stripe(directRows), stripe(directRows)}
	for r := 0; r < srcRows; r++ {
		if err := src.WriteAt(r*dxb, rowKeys(a, 1, r)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	run := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	run("stream.Reader", func() error {
		rd, err := stream.NewStripeReader(src, 0, src.Len(), dxb)
		if err != nil {
			return err
		}
		defer rd.Close()
		got := make([]int64, dxb)
		for r := 0; r < srcRows; r++ {
			if err := rd.FillFlat(got); err != nil {
				return err
			}
			if !slices.Equal(got, rowKeys(a, 1, r)) {
				return fmt.Errorf("row %d streamed back wrong", r)
			}
		}
		return nil
	})
	run("stream.Writer", func() error {
		w, err := stream.NewWriter(a)
		if err != nil {
			return err
		}
		for r := 0; r < dstRows; r++ {
			addrs, err := dst.AppendAddrs(nil, r*dxb, dxb)
			if err != nil {
				return err
			}
			if err := w.WriteFlat(addrs, rowKeys(a, 2, r)); err != nil {
				return err
			}
		}
		return w.Close()
	})
	for k, s := range direct {
		run(fmt.Sprintf("direct caller %d", k), func() error {
			got := make([]int64, dxb)
			for i := 0; i < directRows; i++ {
				r := i
				if k == 1 {
					r = directRows - 1 - i // lands beyond the frontier first
				}
				if err := s.WriteAt(r*dxb, rowKeys(a, 3+k, r)); err != nil {
					return err
				}
				if err := s.ReadAt(r*dxb, got); err != nil {
					return err
				}
				if !slices.Equal(got, rowKeys(a, 3+k, r)) {
					return fmt.Errorf("row %d read back wrong", r)
				}
			}
			return nil
		})
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	got := make([]int64, dxb)
	for tag, s := range map[int]*pdm.Stripe{1: src, 2: dst, 3: direct[0], 4: direct[1]} {
		for r := 0; r < s.Len()/dxb; r++ {
			if err := s.ReadAt(r*dxb, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, rowKeys(a, tag, r)) {
				t.Fatalf("stripe %d row %d holds the wrong keys afterwards", tag, r)
			}
		}
	}
	const rows = srcRows + dstRows + 2*directRows
	for d, disk := range disks {
		if disk.Blocks() != rows {
			t.Errorf("disk %d: Blocks = %d, want %d", d, disk.Blocks(), rows)
		}
	}
}

// forkProbe embeds the Disk interface, like bench's spanDisk and the fault
// disks: such a wrapper must take the inline path.  It records the largest
// goroutine count seen from inside a block call.
type forkProbe struct {
	pdm.Disk
	max *atomic.Int64
}

func (p forkProbe) ReadBlock(off int, dst []int64) error {
	n := int64(runtime.NumGoroutine())
	for {
		cur := p.max.Load()
		if n <= cur || p.max.CompareAndSwap(cur, n) {
			return p.Disk.ReadBlock(off, dst)
		}
	}
}

// TestReadVNeitherForksNorAllocates: on mem and file arrays a request costs
// no goroutine and no allocation, however many blocks it names.
func TestReadVNeitherForksNorAllocates(t *testing.T) {
	cfg := pdm.Config{D: 8, B: 16, Mem: 4096}
	for _, backend := range []pdm.Backend{pdm.BackendMem, pdm.BackendFile} {
		t.Run(string(backend), func(t *testing.T) {
			disks, err := backend.NewDisks(t.TempDir(), cfg.D, cfg.B)
			if err != nil {
				t.Fatal(err)
			}
			var seen atomic.Int64
			for i, d := range disks {
				disks[i] = forkProbe{Disk: d, max: &seen}
			}
			a, err := pdm.NewWithDisks(cfg, disks)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			const rows = 4
			s, err := a.NewStripe(rows * a.StripeWidth())
			if err != nil {
				t.Fatal(err)
			}
			flat := make([]int64, s.Len())
			if err := s.WriteAt(0, flat); err != nil {
				t.Fatal(err)
			}
			addrs, err := s.AppendAddrs(nil, 0, s.Len())
			if err != nil {
				t.Fatal(err)
			}
			bufs := make([][]int64, len(addrs))
			for i := range bufs {
				bufs[i] = flat[i*cfg.B : (i+1)*cfg.B]
			}

			base := runtime.NumGoroutine()
			allocs := testing.AllocsPerRun(1000, func() {
				if err := a.ReadV(addrs, bufs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("ReadV of %d blocks allocates %.0f times per request, want 0", len(addrs), allocs)
			}
			if got := seen.Load(); got > int64(base) {
				t.Errorf("%d goroutines alive inside a block call, %d before the requests: ReadV forked", got, base)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after 1000 requests, %d before", got, base)
			}
		})
	}
}
