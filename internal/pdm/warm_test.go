//go:build !race

package pdm

import (
	"runtime"
	"sync"
	"testing"
)

// TestWarmUnloadAfterPasses: whole-stripe loads and unloads keep their runs
// scratch apart from the passes', so pass transfers on several goroutines,
// which leave their small scratch on top of the passes' spares in whatever
// order they finish, cannot make the next unload regrow one.  A warm
// unload allocates nothing, whatever ran before it.  The race detector's
// bookkeeping would blur the count, so the file is built without it.
func TestWarmUnloadAfterPasses(t *testing.T) {
	cfg := Config{D: 4, B: 4, Mem: 64}
	a, err := NewFileArray(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.ext == nil {
		t.Skip("FileDisk moves no extents on this platform")
	}
	s, err := a.NewStripe(128 * a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	row, err := a.NewStripe(a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, s.Len())
	if err := s.LoadPadded(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := row.LoadPadded(nil, 0); err != nil {
		t.Fatal(err)
	}
	passes := func() {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]int64, row.Len())
				for range 20 {
					if err := row.ReadAt(0, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	var grew uint64
	for range 8 {
		passes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.UnloadInto(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		grew += after.TotalAlloc - before.TotalAlloc
	}
	if grew != 0 {
		t.Errorf("eight warm unloads of %d blocks after pass transfers allocated %d B", s.Len()/cfg.B, grew)
	}
}
