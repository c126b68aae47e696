//go:build !race

package freelist

import "testing"

func TestTakeAllocatesNothingWarm(t *testing.T) {
	var l List[[64]int64]
	l.Put(l.Take())
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Take()) }); n != 0 {
		t.Fatalf("a warm Take and Put allocate %v times, want 0", n)
	}
}
