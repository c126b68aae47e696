package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/memsort"
)

// Paired benchmarks at the sizes that run.  A memory load is M keys and M is
// 4Ki–64Ki on the machines the suite and bench/ build, so the pairs below
// time Pool.SortKeys and Pool.MultiMerge at those sizes (and at 1Mi, where
// in-sort parallelism has to pay for itself) rather than at n = 1Mi only.
// The grain constants in par.go cite these numbers.  CI runs them once each
// as a smoke test (the BenchmarkWorkers|BenchmarkKernel regex); they are
// reported, not gated — bench/ is the gate.

func fillBenchKeys(buf []int64, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = int64(x >> 2)
	}
}

// keptScratch is the Scratch of this package's benchmarks: Alloc hands out
// a buffer given back earlier when one is long enough, cleared, as
// pdm.Arena does, so that the benchmarks time the kernel rather than the
// allocator.
type keptScratch struct {
	mu   sync.Mutex
	bufs [][]int64
}

func (k *keptScratch) Alloc(n int) ([]int64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, b := range k.bufs {
		if cap(b) >= n {
			k.bufs = slices.Delete(k.bufs, i, i+1)
			clear(b[:n])
			return b[:n], nil
		}
	}
	return make([]int64, n), nil
}

func (k *keptScratch) Free(buf []int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.bufs = append(k.bufs, buf)
}

// benchPool is a pool of width w borrowing from a keptScratch.
func benchPool(w int) *Pool { return NewLimited(w, nil, &keptScratch{}) }

var benchLoadSizes = []struct {
	name string
	n    int
}{
	{"4Ki", 1 << 12},
	{"16Ki", 1 << 14},
	{"64Ki", 1 << 16},
	{"1Mi", 1 << 20},
}

// BenchmarkWorkersSortKeys pairs workers=1 against workers=GOMAXPROCS at
// every load size: the parallel column must never lose to the serial one.
func BenchmarkWorkersSortKeys(b *testing.B) {
	widths := []int{1, runtime.GOMAXPROCS(0)}
	for _, sz := range benchLoadSizes {
		for _, w := range widths {
			b.Run(fmt.Sprintf("%s/workers=%d", sz.name, w), func(b *testing.B) {
				pool := benchPool(w)
				src := make([]int64, sz.n)
				fillBenchKeys(src, 7)
				a := make([]int64, sz.n)
				b.SetBytes(int64(8 * sz.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(a, src)
					pool.SortKeys(a)
				}
				if !memsort.IsSorted(a) {
					b.Fatal("not sorted")
				}
			})
		}
	}
}

// mergeBenchLanes builds k sorted lanes of per keys each in one of three
// shapes.  "uniform" draws every lane from the same range, so the lanes
// interleave key by key — the shape pass 2 of the (l,m)-merge sees on
// uniform input, and the gallop's worst case.  "runs" deals the sorted
// sequence out in bands of 64 keys, round-robin, the shape presorted or
// clustered inputs produce.  "disjoint" gives lane i the i-th range
// outright, the shape range-partitioned lanes have.
func mergeBenchLanes(shape string, k, per int) [][]int64 {
	lanes := make([][]int64, k)
	for i := range lanes {
		lane := make([]int64, per)
		switch shape {
		case "uniform":
			fillBenchKeys(lane, uint64(i+1))
			memsort.Keys(lane)
		case "runs":
			const band = 64
			for j := range lane {
				lane[j] = int64((j/band*k+i)*band + j%band)
			}
		case "disjoint":
			for j := range lane {
				lane[j] = int64(i*per + j)
			}
		}
		lanes[i] = lane
	}
	return lanes
}

// BenchmarkKernelMultiMerge times the pool's k-way merge at the group
// sizes pass 2 runs (64 lanes of 256 and of 1024 keys), per lane shape, at
// the host's width: the adaptive merge with its radix tail ("radix")
// against the loser tree's plain pops ("pops").
func BenchmarkKernelMultiMerge(b *testing.B) {
	const k = 64
	for _, shape := range []string{"uniform", "runs", "disjoint"} {
		for _, per := range []int{256, 1024} {
			for _, tail := range []string{"pops", "radix"} {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", shape, k, per, tail), func(b *testing.B) {
					pool := benchPool(0)
					lanes := mergeBenchLanes(shape, k, per)
					dst := make([]int64, k*per)
					b.SetBytes(int64(8 * k * per))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if tail == "pops" {
							memsort.MultiMerge(dst, lanes)
						} else {
							pool.MultiMerge(dst, lanes)
						}
					}
					if !memsort.IsSorted(dst) {
						b.Fatal("not sorted")
					}
				})
			}
		}
	}
}

// BenchmarkWorkersPrimitives pairs workers=1 against workers=GOMAXPROCS for
// the pool's other forked operations at a load size and well above it: For
// with its lightest body (a memmove) and Transpose.
func BenchmarkWorkersPrimitives(b *testing.B) {
	widths := []int{1, runtime.GOMAXPROCS(0)}
	for _, sz := range benchLoadSizes[2:] {
		src := make([]int64, sz.n)
		fillBenchKeys(src, 9)
		dst := make([]int64, sz.n)
		ops := []struct {
			name string
			run  func(p *Pool)
		}{
			{"for-copy", func(p *Pool) {
				p.For(sz.n, sz.n, func(_, lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
			}},
			{"transpose", func(p *Pool) { p.Transpose(dst, src, sz.n/64, 64) }},
		}
		for _, op := range ops {
			for _, w := range widths {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", op.name, sz.name, w), func(b *testing.B) {
					p := New(w)
					b.SetBytes(int64(8 * sz.n))
					for i := 0; i < b.N; i++ {
						op.run(p)
					}
				})
			}
		}
	}
}
