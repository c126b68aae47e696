//go:build !race

package scenario

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/pdm"
)

// TestWarmFilterAllocatesNoAddressList pins what a warm filter pass
// allocates: the arena hands its buffers back, the stream's range check is
// arithmetic, and the prefetcher plans each chunk into an address buffer
// it recycles, so what is left is a constant of the pass — a Reader, its
// channels and goroutine — under 4 KiB, where one address per block of
// the input would be 128 KiB.  The race detector's own bookkeeping would
// blur the count, so the file is built without it.
func TestWarmFilterAllocatesNoAddressList(t *testing.T) {
	a, err := pdm.New(pdm.Config{D: testD, B: testB, Mem: testMem, Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = 1 << 18
	in := stage(t, a, randomKeys(n, 1<<40, 5), n)
	pass := func() {
		if err := FilterKept(a, in, 0, -1, false, 64, func([]int64, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm the arena and the stream's lists
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	list := float64(n / testB * int(unsafe.Sizeof(pdm.BlockAddr{})))
	t.Logf("a warm filter pass allocates %.0f bytes; one address list is %.0f", bytes, list)
	if bytes > 4096 {
		t.Fatalf("a warm filter pass allocated %.0f bytes, over 4 KiB (one address list is %.0f bytes)", bytes, list)
	}
}
