package records

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/pdm"
)

// newArray builds a pipelined in-memory array for the tests.
func newArray(t testing.TB, mem, d, b int) *pdm.Array {
	t.Helper()
	a, err := pdm.New(pdm.Config{
		D: d, B: b, Mem: mem,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// genPayloads builds n deterministic payloads with byte lengths in
// [minLen, maxLen] (zero lengths allowed).
func genPayloads(n, minLen, maxLen int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		ln := minLen
		if maxLen > minLen {
			ln += rng.Intn(maxLen - minLen + 1)
		}
		p := make([]byte, ln)
		rng.Read(p)
		out[i] = p
	}
	return out
}

func randPerm(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func checkPermuted(t *testing.T, payloads [][]byte, perm []int, out [][]byte) {
	t.Helper()
	if len(out) != len(perm) {
		t.Fatalf("got %d outputs, want %d", len(out), len(perm))
	}
	for j, i := range perm {
		if !bytes.Equal(out[j], payloads[i]) {
			t.Fatalf("output %d: got %x, want payload %d = %x", j, out[j], i, payloads[i])
		}
	}
}

func TestPermuteMatchesReference(t *testing.T) {
	cases := []struct {
		name              string
		mem, d, b         int
		n, minLen, maxLen int
	}{
		{"single-chunk", 256, 4, 16, 50, 1, 30},
		{"one-level", 256, 4, 16, 400, 1, 24},
		{"fixed-width", 256, 4, 16, 300, 8, 8},
		{"wide-records", 256, 4, 16, 60, 100, 700}, // records span many blocks
		{"zero-lengths", 256, 4, 16, 300, 0, 12},
		{"deep-recursion", 64, 2, 8, 2000, 1, 10}, // tiny memory forces levels >= 2
		{"single-disk", 144, 1, 12, 200, 0, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newArray(t, tc.mem, tc.d, tc.b)
			defer a.Close()
			payloads := genPayloads(tc.n, tc.minLen, tc.maxLen, 42)
			perm := randPerm(tc.n, 7)
			res, err := Permute(a, payloads, perm)
			if err != nil {
				t.Fatal(err)
			}
			checkPermuted(t, payloads, perm, res.Out)
			if a.Arena().InUse() != 0 {
				t.Fatalf("arena leak: %d keys in use after Permute", a.Arena().InUse())
			}
			if res.Words > 0 && res.IO.ReadSteps == 0 {
				t.Fatal("permutation charged no read steps")
			}
			if env := DiskEnvelope(tc.n, PayloadWords(payloads), tc.mem, tc.d, tc.b); a.DiskFootprint() > env {
				t.Fatalf("disk footprint %d exceeds the envelope %d", a.DiskFootprint(), env)
			}
			// Levels is the distribution depth (deepest chain of scatter
			// levels), not a count of scatter calls: this geometry needs
			// exactly two.
			if tc.name == "deep-recursion" && res.Levels != 2 {
				t.Fatalf("expected distribution depth 2, got %d", res.Levels)
			}
		})
	}
}

func TestPermuteIdentityAndReverse(t *testing.T) {
	a := newArray(t, 256, 4, 16)
	defer a.Close()
	n := 200
	payloads := genPayloads(n, 1, 20, 3)
	id := make([]int, n)
	rev := make([]int, n)
	for i := range id {
		id[i] = i
		rev[i] = n - 1 - i
	}
	for name, perm := range map[string][]int{"identity": id, "reverse": rev} {
		res, err := Permute(a, payloads, perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPermuted(t, payloads, perm, res.Out)
	}
}

// TestPermuteWriteParallelism is the scatter's write-parallelism property:
// at three geometries (the first three levels deep) and four permutation
// shapes, the write steps stay within 5% of the read steps plus one stripe
// row of slack per level (the partitions' partial tail blocks), the arena
// peaks inside its capacity and drains, and the charged I/O and its trace
// do not depend on the pipeline depth or the disk backend.
func TestPermuteWriteParallelism(t *testing.T) {
	for _, g := range []struct{ d, b, mem, n, levels int }{
		{4, 8, 64, 1500, 3},
		{16, 32, 4096, 8192, 1},
		{64, 256, 65536, 65536, 1},
	} {
		payloads := genPayloads(g.n, 1, 64, 5)
		stride := 1021 // prime, coprime with every n above
		perms := map[string][]int{"random": randPerm(g.n, 9), "identity": make([]int, g.n),
			"reverse": make([]int, g.n), "stride": make([]int, g.n)}
		for j := 0; j < g.n; j++ {
			perms["identity"][j], perms["reverse"][j], perms["stride"][j] = j, g.n-1-j, j*stride%g.n
		}
		for name, perm := range perms {
			type run struct {
				io    pdm.Stats
				trace []pdm.TraceOp
			}
			var ref *run
			for _, backend := range []string{"mem", "file", "mmap"} {
				for _, pipe := range []pdm.PipelineConfig{{}, {Prefetch: 2, WriteBehind: 2}} {
					if ref != nil && backend != "mem" && g.d == 64 && pipe.Prefetch == 0 {
						continue // 64 files per array: one depth per file backend is enough
					}
					tag := fmt.Sprintf("D=%d B=%d M=%d %s %s %+v", g.d, g.b, g.mem, name, backend, pipe)
					cfg := pdm.Config{D: g.d, B: g.b, Mem: g.mem, Pipeline: pipe}
					var a *pdm.Array
					var err error
					switch backend {
					case "mem":
						a, err = pdm.New(cfg)
					case "file":
						a, err = pdm.NewFileArray(cfg, t.TempDir())
					case "mmap":
						a, err = pdm.NewMmapArray(cfg, t.TempDir())
					}
					if err != nil {
						t.Fatal(err)
					}
					a.EnableTrace()
					res, err := Permute(a, payloads, perm)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					checkPermuted(t, payloads, perm, res.Out)
					if res.Levels != g.levels {
						t.Fatalf("%s: %d levels, want %d", tag, res.Levels, g.levels)
					}
					if w, r := res.IO.WriteSteps, res.IO.ReadSteps; float64(w) > 1.05*float64(r)+float64(res.Levels*g.d) {
						t.Errorf("%s: %d write steps against %d read steps (%d blocks each way)", tag, w, r, res.IO.BlocksWritten)
					}
					if peak, limit := a.Arena().Peak(), a.Config().ArenaCapacity(); peak > limit || a.Arena().InUse() != 0 {
						t.Errorf("%s: arena peak %d of %d, %d left in use", tag, peak, limit, a.Arena().InUse())
					}
					got := &run{io: pdm.Stats{BlocksRead: res.IO.BlocksRead, BlocksWritten: res.IO.BlocksWritten,
						ReadSteps: res.IO.ReadSteps, WriteSteps: res.IO.WriteSteps}, trace: a.Trace()}
					if ref == nil {
						ref = got
					} else if got.io != ref.io || !pdm.TracesEqual(got.trace, ref.trace) {
						t.Errorf("%s: charged %+v, the first run %+v (traces equal: %v)", tag, got.io, ref.io, pdm.TracesEqual(got.trace, ref.trace))
					}
					a.Close()
				}
			}
		}
	}
}

func TestPermuteAllEmptyPayloads(t *testing.T) {
	a := newArray(t, 256, 4, 16)
	defer a.Close()
	payloads := make([][]byte, 10)
	for i := range payloads {
		payloads[i] = []byte{}
	}
	res, err := Permute(a, payloads, randPerm(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Words != 0 || res.IO.ReadSteps != 0 || res.IO.WriteSteps != 0 {
		t.Fatalf("empty payloads moved I/O: %+v", res)
	}
	for j, p := range res.Out {
		if len(p) != 0 {
			t.Fatalf("output %d not empty", j)
		}
	}
}

func TestNaiveGatherMatchesPermute(t *testing.T) {
	a := newArray(t, 256, 4, 16)
	defer a.Close()
	n := 500
	payloads := genPayloads(n, 0, 24, 11)
	perm := randPerm(n, 5)
	want, err := Permute(a, payloads, perm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := naiveGather(a, payloads, perm)
	if err != nil {
		t.Fatal(err)
	}
	checkPermuted(t, payloads, perm, got.Out)
	if a.Arena().InUse() != 0 {
		t.Fatalf("arena leak after naiveGather: %d", a.Arena().InUse())
	}
	// The distribution pass must charge far fewer parallel steps than the
	// per-record gather on small records.
	if want.IO.ReadSteps >= got.IO.ReadSteps {
		t.Fatalf("distribution read steps %d not below naive gather's %d",
			want.IO.ReadSteps, got.IO.ReadSteps)
	}
}

func TestPermuteValidation(t *testing.T) {
	a := newArray(t, 256, 4, 16)
	defer a.Close()
	payloads := genPayloads(4, 1, 4, 1)
	for name, perm := range map[string][]int{
		"short":        {0, 1, 2},
		"duplicate":    {0, 1, 1, 3},
		"out-of-range": {0, 1, 2, 4},
		"negative":     {0, 1, 2, -1},
	} {
		if _, err := Permute(a, payloads, perm); err == nil {
			t.Fatalf("%s permutation accepted", name)
		}
	}
	if a.Arena().InUse() != 0 {
		t.Fatal("validation failure leaked arena memory")
	}
}

// faultDisk injects an error on the k-th operation of the given kind.
type faultDisk struct {
	pdm.Disk
	reads, writes *atomic.Int64
	failRead      int64 // fail the Nth read (1-based; 0 = never)
	failWrite     int64
}

var errInjected = fmt.Errorf("records_test: injected disk fault")

func (d faultDisk) ReadBlock(off int, dst []int64) error {
	if n := d.reads.Add(1); d.failRead > 0 && n >= d.failRead {
		return fmt.Errorf("%w (read %d, block %d)", errInjected, n, off)
	}
	return d.Disk.ReadBlock(off, dst)
}

func (d faultDisk) WriteBlock(off int, src []int64) error {
	if n := d.writes.Add(1); d.failWrite > 0 && n >= d.failWrite {
		return fmt.Errorf("%w (write %d, block %d)", errInjected, n, off)
	}
	return d.Disk.WriteBlock(off, src)
}

func faultArray(t *testing.T, mem, d, b int, failRead, failWrite int64) (*pdm.Array, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	reads, writes := new(atomic.Int64), new(atomic.Int64)
	disks := make([]pdm.Disk, d)
	for i := range disks {
		disks[i] = faultDisk{Disk: pdm.NewMemDisk(b), reads: reads, writes: writes,
			failRead: failRead, failWrite: failWrite}
	}
	a, err := pdm.NewWithDisks(pdm.Config{
		D: d, B: b, Mem: mem,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	}, disks)
	if err != nil {
		t.Fatal(err)
	}
	return a, reads, writes
}

// TestPermuteDiskFaultDeterministic injects a read fault mid-permutation
// and checks that the failure surfaces, drains the arena, and names the
// same first failing request on every run.
func TestPermuteDiskFaultDeterministic(t *testing.T) {
	payloads := genPayloads(400, 1, 24, 9)
	perm := randPerm(400, 2)
	run := func() string {
		a, _, _ := faultArray(t, 256, 4, 16, 40, 0)
		defer a.Close()
		_, err := Permute(a, payloads, perm)
		if err == nil {
			t.Fatal("injected read fault did not surface")
		}
		if got := a.Arena().InUse(); got != 0 {
			t.Fatalf("arena holds %d keys after a failed permutation", got)
		}
		return err.Error()
	}
	first := run()
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("fault not deterministic:\nfirst %q\nagain %q", first, again)
		}
	}
	// Write-side faults must surface too (possibly on a later request: the
	// write-behind writer reports transfer errors at the next submission).
	a, _, _ := faultArray(t, 256, 4, 16, 0, 25)
	defer a.Close()
	if _, err := Permute(a, payloads, perm); err == nil {
		t.Fatal("injected write fault did not surface")
	}
	if got := a.Arena().InUse(); got != 0 {
		t.Fatalf("arena holds %d keys after a failed permutation", got)
	}
}

// cancelDisk cancels a context after the k-th read, so the abort lands
// deterministically in the middle of the gather.
type cancelDisk struct {
	pdm.Disk
	reads  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (d cancelDisk) ReadBlock(off int, dst []int64) error {
	if d.reads.Add(1) == d.after {
		d.cancel()
	}
	return d.Disk.ReadBlock(off, dst)
}

// TestPermuteCancellationDrainsArena cancels the array's bound context in
// the middle of the permutation and checks a prompt abort with the arena
// fully drained — the contract the scheduler's envelope accounting needs.
func TestPermuteCancellationDrainsArena(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reads := new(atomic.Int64)
	const d, b, mem = 4, 16, 256
	disks := make([]pdm.Disk, d)
	for i := range disks {
		disks[i] = cancelDisk{Disk: pdm.NewMemDisk(b), reads: reads, after: 30, cancel: cancel}
	}
	a, err := pdm.NewWithDisks(pdm.Config{
		D: d, B: b, Mem: mem,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	}, disks)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.BindContext(ctx)
	defer a.BindContext(nil)

	payloads := genPayloads(600, 1, 24, 13)
	_, err = Permute(a, payloads, randPerm(600, 3))
	if err == nil {
		t.Fatal("canceled permutation succeeded")
	}
	if ctx.Err() == nil {
		t.Fatal("test never reached the cancellation point")
	}
	if got := a.Arena().InUse(); got != 0 {
		t.Fatalf("arena holds %d keys after cancellation", got)
	}
}

func TestPayloadWordsAndEnvelope(t *testing.T) {
	if w := PayloadWords([][]byte{nil, {1}, make([]byte, 8), make([]byte, 9)}); w != 0+1+1+2 {
		t.Fatalf("PayloadWords = %d", w)
	}
	if e := DiskEnvelope(10, 0, 256, 4, 16); e != 0 {
		t.Fatalf("zero-word envelope = %d", e)
	}
	// The envelope must grow with the payload volume and stay finite for
	// deep recursions.
	small := DiskEnvelope(100, 1000, 64, 2, 8)
	large := DiskEnvelope(100, 100000, 64, 2, 8)
	if small <= 0 || large <= small {
		t.Fatalf("envelope not monotone: %d then %d", small, large)
	}
}
