package pdm

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestStripeRoundTrip(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := a.StripeWidth() * 3 // 96 keys
	s, err := a.NewStripe(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(n - i)
	}
	if err := s.WriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, n)
	if err := s.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestStripeFullParallelism(t *testing.T) {
	// Sequential access to a stripe must achieve one step per D blocks.
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := a.StripeWidth() * 4
	s, err := a.NewStripe(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, n)
	if err := s.WriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if want := int64(4); st.WriteSteps != want {
		t.Fatalf("WriteSteps = %d, want %d (full parallelism)", st.WriteSteps, want)
	}
	if eff := st.WriteEfficiency(a.D()); eff != 1 {
		t.Fatalf("WriteEfficiency = %v, want 1", eff)
	}
}

func TestStripeAlignmentAndRange(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewStripe(a.B() + 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned stripe: err = %v, want ErrUnaligned", err)
	}
	if _, err := a.NewStripe(0); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("empty stripe: err = %v, want ErrUnaligned", err)
	}
	s, err := a.NewStripe(a.B() * 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(1, make([]int64, a.B())); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned offset: err = %v, want ErrUnaligned", err)
	}
	if err := s.ReadAt(0, make([]int64, a.B()*3)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("over-read: err = %v, want ErrOutOfRange", err)
	}
}

func TestStripeBlockAddrRoundRobin(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewStripe(a.StripeWidth() * 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.Blocks(); j++ {
		ad := s.BlockAddr(j)
		if ad.Disk != j%a.D() {
			t.Fatalf("block %d on disk %d, want %d", j, ad.Disk, j%a.D())
		}
	}
}

func TestRowAllocatorReuse(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := a.NewStripe(a.StripeWidth() * 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.BlockAddr(0)
	s1.Free()
	s2, err := a.NewStripe(a.StripeWidth() * 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.BlockAddr(0); got != addr {
		t.Fatalf("freed rows not reused: got %+v, want %+v", got, addr)
	}
}

func TestRowAllocatorCoalesce(t *testing.T) {
	var ra rowAllocator
	a := ra.alloc(2)
	b := ra.alloc(3)
	ra.release(a, 2)
	ra.release(b, 3)
	if got := ra.alloc(5); got != a {
		t.Fatalf("coalesced alloc = %d, want %d", got, a)
	}
}

func TestLoadUnloadDoNotCount(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewStripe(a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, s.Len())
	for i := range data {
		data[i] = int64(i * 7)
	}
	if err := s.Load(data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("Load/Unload changed stats: %+v", st)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], data[i])
		}
	}
	if err := s.Load(data[:1]); err == nil {
		t.Fatal("short Load accepted")
	}
}

// TestLoadPaddedUnloadInto pins the facade's copy-free staging: inputs that
// end on a block boundary, mid-block, or are empty load with sentinel
// padding and leave data untouched; a prefix unloads straight into its
// destination at every alignment; neither is charged.
func TestLoadPaddedUnloadInto(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := a.B()
	s, err := a.NewStripe(2 * a.StripeWidth())
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = int64(-99)
	for _, n := range []int{0, 1, b - 1, b, b + 1, 3 * b, s.Len() - 1, s.Len()} {
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(1000*n + i)
		}
		orig := append([]int64(nil), data...)
		if err := s.LoadPadded(data, sentinel); err != nil {
			t.Fatal(err)
		}
		got, err := s.Unload()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			want := sentinel
			if i < n {
				want = orig[i]
			}
			if v != want {
				t.Fatalf("n=%d: key %d = %d, want %d", n, i, v, want)
			}
		}
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("n=%d: LoadPadded modified its input at %d", n, i)
			}
		}
		prefix := make([]int64, n+1) // one guard key past the prefix
		prefix[n] = 7
		if err := s.UnloadInto(prefix[:n]); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if prefix[i] != orig[i] {
				t.Fatalf("n=%d: UnloadInto key %d = %d, want %d", n, i, prefix[i], orig[i])
			}
		}
		if prefix[n] != 7 {
			t.Fatalf("n=%d: UnloadInto wrote past its destination", n)
		}
	}
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("LoadPadded/UnloadInto changed stats: %+v", st)
	}
	if err := s.LoadPadded(make([]int64, s.Len()+1), sentinel); err == nil {
		t.Fatal("oversized LoadPadded accepted")
	}
	if err := s.UnloadInto(make([]int64, s.Len()+1)); err == nil {
		t.Fatal("oversized UnloadInto accepted")
	}
}

func TestStripeQuickRoundTrip(t *testing.T) {
	// Property: for any block-aligned write inside the stripe, reading the
	// same range returns the written data.
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewStripe(a.StripeWidth() * 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(0, make([]int64, s.Len())); err != nil {
		t.Fatal(err)
	}
	f := func(blockOff uint8, nBlocks uint8, fill int64) bool {
		b := a.B()
		off := (int(blockOff) % s.Blocks()) * b
		nb := 1 + int(nBlocks)%4
		if off+nb*b > s.Len() {
			nb = (s.Len() - off) / b
		}
		src := make([]int64, nb*b)
		for i := range src {
			src[i] = fill + int64(i)
		}
		if err := s.WriteAt(off, src); err != nil {
			return false
		}
		dst := make([]int64, len(src))
		if err := s.ReadAt(off, dst); err != nil {
			return false
		}
		for i := range src {
			if dst[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
