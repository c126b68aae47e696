package par

import (
	"fmt"
	"sync"

	"repro/internal/memsort"
)

// Kernel names the in-memory sort kernel a Pool uses for load sorts
// (SortKeys, SortKeysScratch, SortSegment).  It is the one kernel identity
// in the repository: the value is the canonical name the CLI flags, the job
// descriptor, and the planner's tables spell, parsed once by ParseKernel.
// The kernel changes only how a memory load gets sorted — wall-clock and
// allocation behaviour — never the resulting keys, so every choice is
// bit-identical on output, stats, and traces (the root determinism suite
// proves it per algorithm).
type Kernel string

const (
	// KernelAuto resolves per load via Resolve: a pure function of the load
	// size, so the pick is deterministic across workers, backends, and
	// probe noise.  The zero value, so unconfigured pools get it.
	KernelAuto Kernel = ""
	// KernelComparison is the cache-aware comparison introsort
	// (memsort.Keys) plus symmetric-merge combining: no scratch, no
	// assumptions about key distribution.
	KernelComparison Kernel = "comparison"
	// KernelRadix is the LSD byte-radix sort (memsort.RadixKeys serial,
	// Pool.radixSortScratch parallel): O(active bytes) moves per key, needs
	// len(a) scratch, wins on uniform keys at memory-load sizes.
	KernelRadix Kernel = "radix"
)

// Kernels lists the concrete kernels in canonical order — the order the
// planner's ranked table keeps on exact ties.
var Kernels = []Kernel{KernelComparison, KernelRadix}

// String returns the canonical kernel name ("auto" for the zero value).
func (k Kernel) String() string {
	if k == KernelAuto {
		return "auto"
	}
	return string(k)
}

// ParseKernel maps a selector (a CLI flag, a config or job-descriptor
// field) onto a Kernel; the empty string and "auto" both mean KernelAuto.
func ParseKernel(name string) (Kernel, error) {
	switch k := Kernel(name); k {
	case KernelAuto, KernelComparison, KernelRadix:
		return k, nil
	case "auto":
		return KernelAuto, nil
	}
	return "", fmt.Errorf("unknown kernel %q (want %q, %q, or %q)", name, KernelAuto, KernelComparison, KernelRadix)
}

// autoRadixMinKeys is the load size at which AutoKernel switches from the
// comparison introsort to the radix kernel.  Below it the counting pass and
// bucket tables cost more than they save; at and above it radix wins on the
// paired BenchmarkKernelSort* microbenchmarks with margin to spare.
const autoRadixMinKeys = 4096

// AutoKernel resolves KernelAuto for a load of n keys.  It is the single
// Auto rule in the repository: the facade applies it (through Resolve) to
// the machine's memory-load size, and unconfigured pools apply it per call,
// so every layer agrees on the pick.  It depends only on n — never on
// worker count, backend, or probe measurements — which keeps the choice
// bit-stable (mirroring how plan.Choose prices with fixed DefaultCalibration
// constants rather than probed rates).
func AutoKernel(n int) Kernel {
	if n >= autoRadixMinKeys {
		return KernelRadix
	}
	return KernelComparison
}

// Kernel returns the pool's configured kernel (KernelAuto if unset).
func (p *Pool) Kernel() Kernel { return p.kernel }

// Resolve returns the concrete kernel k sorts a load of n keys with: k
// itself, or AutoKernel(n) for KernelAuto.
func (k Kernel) Resolve(n int) Kernel {
	if k == KernelAuto {
		return AutoKernel(n)
	}
	return k
}

// kernelFor resolves the pool's kernel for a load of n keys.
func (p *Pool) kernelFor(n int) Kernel { return p.kernel.Resolve(n) }

// maxPooledScratchKeys caps the capacity of radix scratch buffers retained
// by the free list.  sync.Pool keeps one entry per P between collections, so
// without the cap a large-M load would pin GOMAXPROCS × 8·M bytes of dead
// scratch after a single sort (the same failure mode PR 6's
// maxPooledBufBytes fixed for FileDisk's encode buffers).  Oversized
// scratch is allocated fresh, used once, and left to the GC.
const maxPooledScratchKeys = 1 << 16

// scratchPool is the free list behind getScratch/putScratch.  Entries are
// *[]int64 to keep Put calls allocation-free.
var scratchPool sync.Pool

// getScratch returns a scratch slice of exactly n keys, reusing a pooled
// buffer when one is large enough.  Contents are unspecified.
func getScratch(n int) *[]int64 {
	if bp, ok := scratchPool.Get().(*[]int64); ok {
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
		// Too small for this load; drop it rather than cycling it back.
	}
	b := make([]int64, n)
	return &b
}

// putScratch returns a scratch buffer to the free list unless it exceeds
// maxPooledScratchKeys (see that constant for why oversized buffers are
// dropped instead).
func putScratch(bp *[]int64) {
	if cap(*bp) > maxPooledScratchKeys {
		return
	}
	scratchPool.Put(bp)
}

// SortSegment sorts one contiguous segment with the pool's kernel, serially
// on the calling goroutine.  It is the per-segment leaf for callers that
// manage their own parallelism — columnsort's independent column sorts run
// it inside a For callback — and is safe to call concurrently: radix scratch
// comes from the capped free list, never shared state.
func (p *Pool) SortSegment(a []int64) {
	p.sortSegmentKernel(a, p.kernelFor(len(a)))
}

// sortSegmentKernel sorts a serially with kernel k.
func (p *Pool) sortSegmentKernel(a []int64, k Kernel) {
	if k == KernelRadix && len(a) >= memsort.RadixMinKeys {
		bp := getScratch(len(a))
		memsort.RadixKeys(a, *bp)
		putScratch(bp)
		return
	}
	memsort.Keys(a)
}

// radixSignBit mirrors memsort's sign-flip: XORing it maps signed key order
// onto unsigned digit order (only the top byte is affected).
const radixSignBit = uint64(1) << 63

// radixSkipDigit reports whether every key shares this digit value, making
// the scatter pass an identity permutation worth skipping.
func radixSkipDigit(c *[256]int, n int) bool {
	for _, cnt := range c {
		if cnt == n {
			return true
		}
		if cnt > 0 {
			return false
		}
	}
	return false
}

// radixSortScratch is the parallel LSD radix sort: a ping-pong between a and
// scratch (len ≥ len(a)) over the active byte digits.  Each pass is the
// Histogram primitive's shape specialized to byte digits — per-worker
// private counts over contiguous spans, reduced serially — followed by a
// stable parallel scatter: offsets are laid out in (digit, worker) order, so
// every worker writes a disjoint dst range and the key order is exactly the
// serial LSD order for any worker count.  The counting work is cache-blocked
// the same way as memsort.RadixKeys: the first scan accumulates all eight
// digit histograms at once, and digits on which all keys agree never scatter.
func (p *Pool) radixSortScratch(a, scratch []int64) {
	n := len(a)
	if p.workers == 1 || n < minParallel {
		memsort.RadixKeys(a, scratch)
		return
	}
	scratch = scratch[:n]
	s := p.workers
	counts8 := make([][8][256]int, s)
	p.parDo(s, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			c := &counts8[w]
			for _, v := range a[w*n/s : (w+1)*n/s] {
				u := uint64(v) ^ radixSignBit
				c[0][u&0xff]++
				c[1][u>>8&0xff]++
				c[2][u>>16&0xff]++
				c[3][u>>24&0xff]++
				c[4][u>>32&0xff]++
				c[5][u>>40&0xff]++
				c[6][u>>48&0xff]++
				c[7][u>>56]++
			}
		}
	})
	var global [8][256]int
	for w := range counts8 {
		for pass := 0; pass < 8; pass++ {
			for d, cnt := range counts8[w][pass] {
				global[pass][d] += cnt
			}
		}
	}
	src, dst := a, scratch
	cnt := make([][256]int, s)
	off := make([][256]int, s)
	first := true
	for pass := 0; pass < 8; pass++ {
		if radixSkipDigit(&global[pass], n) {
			continue
		}
		shift := uint(8 * pass)
		if first {
			// The initial scan already counted this digit over a == src.
			for w := range cnt {
				cnt[w] = counts8[w][pass]
			}
			first = false
		} else {
			p.parDo(s, func(_, lo, hi int) {
				for w := lo; w < hi; w++ {
					c := &cnt[w]
					*c = [256]int{}
					for _, v := range src[w*n/s : (w+1)*n/s] {
						c[(uint64(v)^radixSignBit)>>shift&0xff]++
					}
				}
			})
		}
		sum := 0
		for d := 0; d < 256; d++ {
			for w := 0; w < s; w++ {
				off[w][d] = sum
				sum += cnt[w][d]
			}
		}
		p.parDo(s, func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				o := &off[w]
				for _, v := range src[w*n/s : (w+1)*n/s] {
					d := (uint64(v) ^ radixSignBit) >> shift & 0xff
					dst[o[d]] = v
					o[d]++
				}
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		p.parDo(n, func(_, lo, hi int) {
			copy(a[lo:hi], src[lo:hi])
		})
	}
}
