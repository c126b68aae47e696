package memsort

// insertionThreshold is the subarray size below which Keys switches to
// insertion sort.
const insertionThreshold = 24

// Keys sorts a in nondecreasing order using introsort: quicksort with
// median-of-three pivots, falling back to heapsort when recursion depth
// exceeds 2·⌊log₂ n⌋, and to insertion sort on small subarrays.
func Keys(a []int64) {
	if len(a) < 2 {
		return
	}
	maxDepth := 0
	for n := len(a); n > 0; n >>= 1 {
		maxDepth += 2
	}
	introsort(a, maxDepth)
}

func introsort(a []int64, depth int) {
	for len(a) > insertionThreshold {
		if depth == 0 {
			heapsort(a)
			return
		}
		depth--
		p := partition(a)
		// Recurse on the smaller side to bound stack depth at O(log n).
		if p < len(a)-p-1 {
			introsort(a[:p], depth)
			a = a[p+1:]
		} else {
			introsort(a[p+1:], depth)
			a = a[:p]
		}
	}
	insertion(a)
}

// partition picks a median-of-three pivot, partitions a around it, and
// returns the pivot's final index.
func partition(a []int64) int {
	m := len(a) / 2
	hi := len(a) - 1
	// Order a[0], a[m], a[hi]; use a[m] as pivot, parked at a[hi-1].
	if a[m] < a[0] {
		a[m], a[0] = a[0], a[m]
	}
	if a[hi] < a[0] {
		a[hi], a[0] = a[0], a[hi]
	}
	if a[hi] < a[m] {
		a[hi], a[m] = a[m], a[hi]
	}
	pivot := a[m]
	a[m], a[hi-1] = a[hi-1], a[m]
	i, j := 0, hi-1
	for {
		for i++; a[i] < pivot; i++ {
		}
		for j--; a[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

func insertion(a []int64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func heapsort(a []int64) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDown(a, 0, i)
	}
}

func siftDown(a []int64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// IsSorted reports whether a is in nondecreasing order.
func IsSorted(a []int64) bool {
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			return false
		}
	}
	return true
}

// Reverse reverses a in place.
func Reverse(a []int64) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// MinMax returns the smallest and largest keys of a, which must be nonempty.
func MinMax(a []int64) (min, max int64) {
	min, max = a[0], a[0]
	for _, v := range a[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// mergeMinGallop is how many consecutive wins one input needs before the
// merge switches from the element-at-a-time loop to galloping: exponential
// probing for the end of the winner's run followed by a bulk copy.  Clustered
// inputs (long presorted stretches, range-partitioned lanes) collapse to
// near-memcpy speed; interleaved inputs never gallop and pay only a counter.
const mergeMinGallop = 8

// MergeBinary merges sorted slices a and b into dst, which must have length
// len(a)+len(b).  The merge is stable with ties taken from a first.  After
// mergeMinGallop consecutive keys from the same input it gallops: the end of
// the current run is found by exponential + binary search and the run is bulk
// copied (bench_test.go keeps the plain-loop ablation baseline).
func MergeBinary(dst, a, b []int64) {
	if len(dst) != len(a)+len(b) {
		panic("memsort: MergeBinary destination size mismatch")
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		// Gallop detection costs one comparison per side per round: the
		// inputs are sorted, so "the next mergeMinGallop keys of b all beat
		// a's head" is exactly b[j+mergeMinGallop-1] < a[i].  The element
		// loop below never pays a per-key counter.
		if j+mergeMinGallop <= len(b) && b[j+mergeMinGallop-1] < a[i] {
			n := gallopLess(b[j:], a[i])
			copy(dst[k:], b[j:j+n])
			k += n
			j += n
			continue
		}
		if i+mergeMinGallop <= len(a) && a[i+mergeMinGallop-1] <= b[j] {
			n := gallopLessEq(a[i:], b[j])
			copy(dst[k:], a[i:i+n])
			k += n
			i += n
			continue
		}
		for t := 0; t < 4*mergeMinGallop && i < len(a) && j < len(b); t++ {
			if b[j] < a[i] {
				dst[k] = b[j]
				j++
			} else {
				dst[k] = a[i]
				i++
			}
			k++
		}
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// gallopLess returns how many leading elements of s are < v, probing
// exponentially from the front and finishing with a binary search over the
// last doubling window.  Cost is O(log r) for a run of length r, against
// O(r) for the element loop.
func gallopLess(s []int64, v int64) int {
	if len(s) == 0 || s[0] >= v {
		return 0
	}
	lo, hi := 0, 1
	for hi < len(s) && s[hi] < v {
		lo = hi
		hi <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// gallopLessEq is gallopLess with a ≤ bound: how many leading elements of s
// are ≤ v.  The two variants encode the stability rule — the left input wins
// ties, so its gallop may consume keys equal to the other head while the
// right input's gallop must stop before them.
func gallopLessEq(s []int64, v int64) int {
	if len(s) == 0 || s[0] > v {
		return 0
	}
	lo, hi := 0, 1
	for hi < len(s) && s[hi] <= v {
		lo = hi
		hi <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
