package par

import (
	"sync"

	"repro/internal/memsort"
)

// Kernel names the in-memory sort kernel a Pool uses for load sorts
// (SortKeys, SortKeysScratch, SortSegment) and for the tail of its k-way
// merges (MultiMerge, MergeBlocks).  Nothing above this package selects
// one: pdm.NewWithDisks asks AutoKernel for the machine's memory-load size,
// and only this package's tests and benchmarks force a kernel (as the
// reference for the other).  The kernel changes only how a memory load gets
// sorted — wall-clock and allocation behaviour — never the resulting keys,
// so both are bit-identical on output, stats, and traces (the root
// determinism suite proves it per algorithm on either side of AutoKernel's
// threshold).  The one place the kernels leave different bytes is inside
// MergeBlocks' blocks, whose order is unspecified by contract: the radix
// kernel leaves them block-exact, the comparison kernel sorted.
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
	// KernelRadix is the LSD radix sort (memsort.RadixKeys): one move per
	// key per 9-bit digit of the load's key span, needs len(a) scratch,
	// wins on uniform keys at memory-load sizes.  It is also what finishes a
	// k-way merge whose lanes interleave too finely to gallop (MultiMerge),
	// and MergeBlocks' block-exact split (memsort.RadixBlocks).
	KernelRadix Kernel = "radix"
)

// autoRadixMinKeys is the load size at which AutoKernel switches from the
// comparison introsort to the radix kernel.  Below it the counting pass and
// bucket tables cost more than they save; at and above it radix wins on the
// paired BenchmarkKernelSort* microbenchmarks with margin to spare.
const autoRadixMinKeys = 4096

// AutoKernel resolves KernelAuto for a load of n keys.  It is the single
// kernel rule in the repository: pdm.NewWithDisks applies it to the
// machine's memory-load size, and unconfigured pools apply it per call, so
// every layer agrees on the pick.  It depends only on n — never on worker
// count, backend, or probe measurements — which keeps the choice
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

// sortGrain returns the (concrete) kernel's sort grain.
func (k Kernel) sortGrain() int {
	if k == KernelRadix {
		return radixSortGrain
	}
	return comparisonSortGrain
}

// kernelFor resolves the pool's kernel for a load of n keys.
func (p *Pool) kernelFor(n int) Kernel { return p.kernel.Resolve(n) }

// maxPooledScratchKeys caps the capacity of radix scratch buffers retained
// by the free list and maxPooledScratch their number, so retained scratch
// stays under maxPooledScratch × 512 KiB however large M gets (the failure
// mode PR 6's maxPooledBufBytes fixed for FileDisk's encode buffers).
const (
	maxPooledScratchKeys = 1 << 16
	maxPooledScratch     = 8
)

// scratchFree is the free list behind getScratch/putScratch: a
// mutex-guarded stack, which unlike a sync.Pool never drops an entry.
var scratchFree struct {
	sync.Mutex
	bufs []*[]int64 // pointers keep puts allocation-free
}

// getScratch returns n keys of scratch (contents unspecified): the most
// recently freed buffer if large enough, else a fresh one, the old dropped.
func getScratch(n int) *[]int64 {
	var bp *[]int64
	scratchFree.Lock()
	if top := len(scratchFree.bufs) - 1; top >= 0 {
		bp = scratchFree.bufs[top]
		scratchFree.bufs = scratchFree.bufs[:top]
	}
	scratchFree.Unlock()
	if bp != nil && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]int64, n)
	return &b
}

// putScratch returns a scratch buffer to the free list unless it exceeds
// maxPooledScratchKeys or the list is full; either way the GC takes it.
func putScratch(bp *[]int64) {
	if cap(*bp) > maxPooledScratchKeys {
		return
	}
	scratchFree.Lock()
	if len(scratchFree.bufs) < maxPooledScratch {
		scratchFree.bufs = append(scratchFree.bufs, bp)
	}
	scratchFree.Unlock()
}

// SortSegment sorts one contiguous segment with the pool's kernel, serially
// on the calling goroutine.  It is the per-segment leaf for callers that
// manage their own parallelism — columnsort's independent column sorts run
// it inside a For callback — and is safe to call concurrently: radix scratch
// comes from the capped free list, never shared state.
func (p *Pool) SortSegment(a []int64) {
	sortSegmentKernel(a, p.kernelFor(len(a)))
}

// sortSegmentKernel sorts a serially with kernel k, borrowing the radix
// kernel's scratch from the free list.
func sortSegmentKernel(a []int64, k Kernel) {
	if k == KernelRadix && len(a) >= memsort.RadixMinKeys {
		bp := getScratch(len(a))
		memsort.RadixKeys(a, *bp)
		putScratch(bp)
		return
	}
	memsort.Keys(a)
}

// sortSerial sorts a serially with kernel k, given scratch (len ≥ len(a)).
func sortSerial(a, scratch []int64, k Kernel) {
	if k == KernelRadix {
		memsort.RadixKeys(a, scratch)
		return
	}
	memsort.Keys(a)
}
