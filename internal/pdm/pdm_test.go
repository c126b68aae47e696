package pdm

import (
	"errors"
	"testing"

	"repro/internal/par"
)

func testConfig() Config {
	return Config{D: 4, B: 8, Mem: 128}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{D: 4, B: 8, Mem: 128}, true},
		{"zero disks", Config{D: 0, B: 8, Mem: 128}, false},
		{"zero block", Config{D: 4, B: 0, Mem: 128}, false},
		{"memory below one stripe", Config{D: 4, B: 8, Mem: 16}, false},
		{"single disk", Config{D: 1, B: 1, Mem: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestPoolKernelFollowsMemory pins the one place the compute kernel is
// resolved: a function of M (par.AutoKernel), comparison below the
// threshold and radix at and above it, exactly what the facade's resolved
// selector handed the pool when the kernel was still an option.
func TestPoolKernelFollowsMemory(t *testing.T) {
	for _, tc := range []struct {
		b    int
		want par.Kernel
	}{{32, par.KernelComparison}, {64, par.KernelRadix}, {256, par.KernelRadix}} {
		a, err := New(Config{D: 4, B: tc.b, Mem: tc.b * tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Pool().Kernel(); got != tc.want {
			t.Errorf("M = %d: pool kernel %q, want %q", tc.b*tc.b, got, tc.want)
		}
	}
}

func TestConfigC(t *testing.T) {
	cfg := Config{D: 4, B: 8, Mem: 128}
	if got := cfg.C(); got != 4 {
		t.Fatalf("C() = %v, want 4", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with zero config succeeded, want error")
	}
}

func TestNewWithDisksCountMismatch(t *testing.T) {
	cfg := testConfig()
	if _, err := NewWithDisks(cfg, []Disk{NewMemDisk(cfg.B)}); err == nil {
		t.Fatal("NewWithDisks with 1 disk for D=4 succeeded, want error")
	}
}

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk(4)
	src := []int64{1, 2, 3, 4}
	if err := d.WriteBlock(0, src); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(3, []int64{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if got := d.Blocks(); got != 4 {
		t.Fatalf("Blocks() = %d, want 4", got)
	}
	dst := make([]int64, 4)
	if err := d.ReadBlock(0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("block 0 key %d = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestMemDiskErrors(t *testing.T) {
	d := NewMemDisk(4)
	if err := d.ReadBlock(0, make([]int64, 4)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read of missing block: err = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadBlock(0, make([]int64, 3)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("short buffer: err = %v, want ErrBadBlock", err)
	}
	if err := d.WriteBlock(-1, make([]int64, 4)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative write: err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteBlock(0, make([]int64, 5)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("long buffer: err = %v, want ErrBadBlock", err)
	}
	// Reading a hole (beyond any write) fails even below Blocks().
	if err := d.WriteBlock(2, make([]int64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlock(1, make([]int64, 4)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read of hole: err = %v, want ErrOutOfRange", err)
	}
}

func TestReadVWriteVStepAccounting(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := a.B()
	// Writing one block on each of the 4 disks costs exactly 1 step.
	addrs := make([]BlockAddr, a.D())
	bufs := make([][]int64, a.D())
	for i := range addrs {
		addrs[i] = BlockAddr{Disk: i, Off: 0}
		bufs[i] = make([]int64, b)
		for j := range bufs[i] {
			bufs[i][j] = int64(i*b + j)
		}
	}
	if err := a.WriteV(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.WriteSteps != 1 || s.BlocksWritten != 4 {
		t.Fatalf("balanced write: stats = %+v, want 1 step / 4 blocks", s)
	}

	// Three blocks on the same disk cost 3 steps.
	a.ResetStats()
	skew := []BlockAddr{{0, 1}, {0, 2}, {0, 3}}
	sbufs := [][]int64{make([]int64, b), make([]int64, b), make([]int64, b)}
	if err := a.WriteV(skew, sbufs); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.WriteSteps != 3 || s.BlocksWritten != 3 {
		t.Fatalf("skewed write: stats = %+v, want 3 steps / 3 blocks", s)
	}

	// Read back the balanced row and check contents and read accounting.
	a.ResetStats()
	got := make([][]int64, a.D())
	for i := range got {
		got[i] = make([]int64, b)
	}
	if err := a.ReadV(addrs, got); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.ReadSteps != 1 || s.BlocksRead != 4 {
		t.Fatalf("balanced read: stats = %+v, want 1 step / 4 blocks", s)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != bufs[i][j] {
				t.Fatalf("disk %d key %d = %d, want %d", i, j, got[i][j], bufs[i][j])
			}
		}
	}
}

func TestReadVValidation(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReadV([]BlockAddr{{0, 0}}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := a.ReadV([]BlockAddr{{9, 0}}, [][]int64{make([]int64, a.B())}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("bad disk: err = %v, want ErrOutOfRange", err)
	}
	if err := a.ReadV([]BlockAddr{{0, 0}}, [][]int64{make([]int64, 1)}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad buffer: err = %v, want ErrBadBlock", err)
	}
	if err := a.ReadV(nil, nil); err != nil {
		t.Fatalf("empty request: err = %v, want nil", err)
	}
}

func TestSimTimeCostModel(t *testing.T) {
	cfg := testConfig()
	cfg.SeekTime = 10
	cfg.TransferPerKey = 0.5
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := [][]int64{make([]int64, cfg.B)}
	if err := a.WriteV([]BlockAddr{{0, 0}}, buf); err != nil {
		t.Fatal(err)
	}
	want := 10 + float64(cfg.B)*0.5
	if got := a.Stats().SimTime; got != want {
		t.Fatalf("SimTime = %v, want %v", got, want)
	}
}

func TestStatsArithmetic(t *testing.T) {
	s := Stats{BlocksRead: 10, BlocksWritten: 20, ReadSteps: 3, WriteSteps: 5, SimTime: 1.5}
	tt := Stats{BlocksRead: 1, BlocksWritten: 2, ReadSteps: 1, WriteSteps: 1, SimTime: 0.5}
	sum := s.Add(tt)
	if sum.BlocksRead != 11 || sum.WriteSteps != 6 || sum.SimTime != 2 {
		t.Fatalf("Add = %+v", sum)
	}
	diff := sum.Sub(tt)
	if diff != s {
		t.Fatalf("Sub = %+v, want %+v", diff, s)
	}
}

func TestStatsPasses(t *testing.T) {
	// 64 keys, stripe width 32: one pass is 2 read steps.
	s := Stats{ReadSteps: 4, WriteSteps: 2}
	if got := s.ReadPasses(64, 32); got != 2 {
		t.Fatalf("ReadPasses = %v, want 2", got)
	}
	if got := s.WritePasses(64, 32); got != 1 {
		t.Fatalf("WritePasses = %v, want 1", got)
	}
	if got := s.Passes(64, 32); got != 2 {
		t.Fatalf("Passes = %v, want 2 (max of read/write)", got)
	}
	if got := (Stats{}).Passes(0, 32); got != 0 {
		t.Fatalf("Passes(0) = %v, want 0", got)
	}
}

func TestStatsEfficiency(t *testing.T) {
	s := Stats{BlocksRead: 8, ReadSteps: 2, BlocksWritten: 4, WriteSteps: 4}
	if got := s.ReadEfficiency(4); got != 1 {
		t.Fatalf("ReadEfficiency = %v, want 1", got)
	}
	if got := s.WriteEfficiency(4); got != 0.25 {
		t.Fatalf("WriteEfficiency = %v, want 0.25", got)
	}
	if got := (Stats{}).ReadEfficiency(4); got != 1 {
		t.Fatalf("empty ReadEfficiency = %v, want 1", got)
	}
}
