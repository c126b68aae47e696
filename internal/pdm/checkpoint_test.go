package pdm

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
)

func testCfg() Config {
	return Config{D: 4, B: 16, Mem: 1024}
}

func TestStripeRefAdoptRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileArray(testCfg(), dir)
	if err != nil {
		t.Fatalf("NewFileArray: %v", err)
	}
	s, err := a.NewStripeSkew(256, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 256)
	for i := range data {
		data[i] = int64(i * 7)
	}
	if err := s.Load(data); err != nil {
		t.Fatal(err)
	}
	ref := s.Ref()
	st := a.allocSnapshot()
	cum := a.Stats()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh array over the same files, armed with the checkpoint,
	// adopts the stripe and reads the same bytes.
	disks, err := OpenFileDisks(dir, 4, 16)
	if err != nil {
		t.Fatalf("OpenFileDisks: %v", err)
	}
	b, err := NewWithDisks(testCfg(), disks)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetResume(&Checkpoint{Alg: "x", N: 256, Alloc: st, Stats: cum})
	if cp := b.TakeResume("y", 256); cp != nil {
		t.Fatalf("TakeResume matched wrong alg")
	}
	if cp := b.TakeResume("x", 128); cp != nil {
		t.Fatalf("TakeResume matched wrong n")
	}
	cp := b.TakeResume("x", 256)
	if cp == nil {
		t.Fatalf("TakeResume returned nil")
	}
	if !b.ResumeConsumed() {
		t.Fatalf("ResumeConsumed = false after TakeResume")
	}
	s2, err := b.AdoptStripe(ref)
	if err != nil {
		t.Fatalf("AdoptStripe: %v", err)
	}
	got, err := s2.Unload()
	if err != nil {
		t.Fatalf("Unload: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("key %d: got %d want %d", i, got[i], data[i])
		}
	}
	// The restored allocator places the next stripe exactly where the
	// original array would have.
	s3, err := a2NextStripe(b, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Next
	if s3.row0 != want {
		t.Fatalf("next allocation at row %d, want %d", s3.row0, want)
	}
}

func a2NextStripe(a *Array, n int) (*Stripe, error) { return a.NewStripe(n) }

// allocSnapshot exposes the allocator state for tests, mirroring what
// PassDone embeds in a manifest.
func (a *Array) allocSnapshot() AllocState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AllocState{Next: a.alloc.next}
	for _, e := range a.alloc.free {
		st.Free = append(st.Free, Extent{Start: e.start, Rows: e.n})
	}
	return st
}

func TestAdoptStripeValidation(t *testing.T) {
	a, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.AdoptStripe(StripeRef{Row0: 0, Keys: 10}); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned adopt: %v", err)
	}
	if _, err := a.AdoptStripe(StripeRef{Row0: 5, Keys: 64}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range adopt: %v", err)
	}
}

func TestPassDoneFillsManifest(t *testing.T) {
	a, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// No checkpointer: PassDone is a no-op.
	if err := a.PassDone(Checkpoint{Alg: "x", Pass: 1, N: 64}); err != nil {
		t.Fatalf("PassDone without checkpointer: %v", err)
	}
	s, err := a.NewStripe(128)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, 128)
	if err := s.WriteAt(0, buf); err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	a.SetCheckpointer(func(cp Checkpoint) error {
		got = cp
		return nil
	})
	if err := a.PassDone(Checkpoint{Alg: "x", Pass: 1, N: 128,
		Stripes: map[string][]StripeRef{"out": {s.Ref()}}}); err != nil {
		t.Fatalf("PassDone: %v", err)
	}
	if got.Alloc.Next != 2 { // 128 keys / (D·B=64) = 2 rows
		t.Fatalf("manifest alloc next = %d, want 2", got.Alloc.Next)
	}
	if got.Stats.BlocksWritten != 8 {
		t.Fatalf("manifest stats blocks written = %d, want 8", got.Stats.BlocksWritten)
	}
	if len(got.Stripes["out"]) != 1 {
		t.Fatalf("manifest stripes: %+v", got.Stripes)
	}
	sentinel := errors.New("stop here")
	a.SetCheckpointer(func(Checkpoint) error { return sentinel })
	if err := a.PassDone(Checkpoint{}); !errors.Is(err, sentinel) {
		t.Fatalf("checkpointer error not propagated: %v", err)
	}
}

func TestTakeResumeSeedsStats(t *testing.T) {
	a, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	seed := Stats{BlocksRead: 10, BlocksWritten: 20, ReadSteps: 3, WriteSteps: 5}
	a.SetResume(&Checkpoint{Alg: "x", N: 64, Stats: seed, Alloc: AllocState{Next: 7}})
	cp := a.TakeResume("x", 64)
	if cp == nil {
		t.Fatal("TakeResume returned nil")
	}
	st := a.Stats()
	if st.BlocksRead != 10 || st.BlocksWritten != 20 || st.ReadSteps != 3 || st.WriteSteps != 5 {
		t.Fatalf("seeded stats: %+v", st)
	}
	if a.DiskFootprint() != 7*a.StripeWidth() {
		t.Fatalf("footprint %d, want %d", a.DiskFootprint(), 7*a.StripeWidth())
	}
	// A second TakeResume finds nothing.
	if cp := a.TakeResume("x", 64); cp != nil {
		t.Fatalf("resume claimed twice")
	}
}

// TestCheckpointManifestDecode: a journaled manifest decodes with
// encoding/json, which ignores keys this version no longer has, so a
// manifest written by an older build still resumes.  Each row is one
// build's stats encoding.
func TestCheckpointManifestDecode(t *testing.T) {
	want := Stats{BlocksRead: 10, BlocksWritten: 20, ReadSteps: 3, WriteSteps: 5}
	current, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, stats string }{
		{"current", string(current)},
		{"with SimTime", `{"BlocksRead":10,"BlocksWritten":20,"ReadSteps":3,"WriteSteps":5,"SimTime":1.5}`},
	} {
		manifest := `{"alg":"lmm3","pass":1,"n":64,"alloc":{"next":2},"stats":` + tc.stats + `}`
		var cp Checkpoint
		if err := json.Unmarshal([]byte(manifest), &cp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cp.Alg != "lmm3" || cp.Pass != 1 || cp.N != 64 || cp.Alloc.Next != 2 || cp.Stats != want {
			t.Fatalf("%s: decoded %+v", tc.name, cp)
		}
	}
}

func TestOpenFileDiskPreservesFrontier(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "disk0000.bin")
	d, err := NewFileDisk(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := d.WriteBlock(0, src); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := openFileDisk(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Blocks() != 1 {
		t.Fatalf("reopened frontier = %d blocks, want 1", d2.Blocks())
	}
	dst := make([]int64, 8)
	if err := d2.ReadBlock(0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("block round trip: %v != %v", dst, src)
		}
	}
	// NewFileDisk on the same path truncates: the old block is gone.
	d3, err := NewFileDisk(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if err := d3.ReadBlock(0, dst); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read after truncating reopen: %v", err)
	}
}
