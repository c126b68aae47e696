package pdm

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// ioCounters reads the calling thread's read- and write-family syscall
// counts (syscr, syscw) from /proc/thread-self/io.  Callers lock their
// goroutine to its thread, so the runtime's own threads (netpoll wakeups,
// the scavenger) cannot add to what they measure.
func ioCounters(t *testing.T) (syscr, syscw int64) {
	t.Helper()
	raw, err := os.ReadFile("/proc/thread-self/io")
	if err != nil {
		t.Skipf("no syscall counters: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, _ := strings.Cut(line, ":")
		v, _ := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		switch key {
		case "syscr":
			syscr = v
		case "syscw":
			syscw = v
		}
	}
	return syscr, syscw
}

// TestExtentLoadSyscalls: loading R rows onto D file disks costs at most
// D·⌈R/1024⌉ write syscalls (one pwritev per IOV_MAX blocks of each disk's
// run) where per-block staging paid D·R, and unloading them as many reads.
func TestExtentLoadSyscalls(t *testing.T) {
	cfg := Config{D: 4, B: 4, Mem: 64}
	a, err := NewFileArray(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.ext == nil {
		t.Skip("FileDisk moves no extents on this platform")
	}
	const rows = 1100
	runtime.LockOSThread() // staging runs on this goroutine: count its thread
	defer runtime.UnlockOSThread()
	s, err := a.NewStripe(rows * a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, s.Len())
	const iovMax = 1024 // Linux's IOV_MAX
	bound := int64(cfg.D * ((rows + iovMax - 1) / iovMax))

	r0, _ := ioCounters(t)
	r1, w1 := ioCounters(t)
	probeReads := r1 - r0 // what reading the counters itself costs
	if err := s.LoadPadded(data, 0); err != nil {
		t.Fatal(err)
	}
	r2, w2 := ioCounters(t)
	if err := s.UnloadInto(data); err != nil {
		t.Fatal(err)
	}
	r3, _ := ioCounters(t)
	if got := w2 - w1; got > bound {
		t.Errorf("load of %d rows on %d disks: %d write syscalls, want <= %d", rows, cfg.D, got, bound)
	}
	if got := r3 - r2 - probeReads; got > bound {
		t.Errorf("unload of %d rows on %d disks: %d read syscalls, want <= %d", rows, cfg.D, got, bound)
	}
}
