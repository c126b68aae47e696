package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/stream"
)

// radixNode is one bucket of the forward (most-significant-digit-first)
// radix tree: either a leaf whose keys fit in memory (or are all equal) or
// an internal node whose children refine the next digit.
type radixNode struct {
	seq      blockSeq
	children []*radixNode
}

// RadixSort sorts in with the paper's Section 7 RadixSort: forward radix
// sort over digits of log₂(M/B) bits, each round a scatterPass (IntegerSort
// phase) refining every bucket larger than M, followed by the final step A
// — read each bucket (now ≤ M keys, w.h.p. after (1+δ)·log(N/M)/log(M/B)
// rounds), sort it in memory, and write the output contiguously.
//
// Keys must be integers in [0, universe); universe ≤ 2^62.  M/B must be a
// power of two (radixRules.Pad).  Theorem 7.2 bounds the pass count by
// (1+ν)·log(N/M)/log(M/B) + 1 for random inputs; skewed inputs simply take
// extra refinement rounds, which the measured Result reflects.
func RadixSort(a *pdm.Array, in *pdm.Stripe, universe int64) (*Result, error) {
	g, err := checkGeometry(a)
	if err != nil {
		return nil, err
	}
	if err := g.accept(AlgRadix, in.Len(), radixRules.Pad); err != nil {
		return nil, err
	}
	if universe <= 0 {
		return nil, fmt.Errorf("core: RadixSort needs a positive key universe, got %d", universe)
	}
	r := g.m / g.b
	w := bits.TrailingZeros(uint(r)) // digit width in bits
	keyBits := bits.Len64(uint64(universe - 1))
	rounds := radixRounds(g.m, universe)

	start := a.Stats()
	st := &scatterState{}
	defer st.release()

	root := &radixNode{seq: st.stripeSeq(in)}
	level := []*radixNode{root}
	for depth := 0; depth < rounds && len(level) > 0; depth++ {
		// Digits align to the key width, so the first round splits on the
		// universe's top w bits.  The last digit may overlap bits a node's
		// keys already share, which keeps it monotone within the node.
		shift := uint(max(keyBits-(depth+1)*w, 0))
		mask := int64(r - 1)
		var next []*radixNode
		for _, node := range level {
			if node.seq.total <= g.m {
				continue // already a leaf
			}
			a.Arena().SetPhase("radixsort/scatter")
			kids, err := scatterPass(a, node.seq, r,
				func(k int64) int { return int((k >> shift) & mask) }, st)
			if err != nil {
				return nil, err
			}
			node.children = make([]*radixNode, 0, r)
			for b := range kids {
				if kids[b].total == 0 {
					continue
				}
				child := &radixNode{seq: kids[b]}
				node.children = append(node.children, child)
				next = append(next, child)
			}
			node.seq = blockSeq{} // parent blocks are dead after refinement
		}
		// Reporting-only round boundary: the radix tree's bucket
		// directory lives in memory, so recovery restarts from input.
		if err := a.PassDone(pdm.Checkpoint{Alg: "radix", Pass: depth + 1, N: in.Len()}); err != nil {
			return nil, err
		}
		level = next
	}

	// Step A: in-order traversal; each leaf is ≤ M keys (or all-equal keys
	// if the digits are exhausted), sorted in memory and appended.  Leaves
	// are read through one batched stream so that tiny buckets do not
	// fragment the parallel reads.
	a.Arena().SetPhase("radixsort/stepA")
	var leaves []blockSeq
	collectRadixLeaves(root, &leaves)
	out, err := a.NewStripe(in.Len())
	if err != nil {
		return nil, err
	}
	raw, err := a.Arena().Alloc(g.m / 2)
	if err != nil {
		out.Free()
		return nil, err
	}
	acc, err := a.Arena().Alloc(g.m)
	if err != nil {
		a.Arena().Free(raw)
		out.Free()
		return nil, err
	}
	apBuf, err := a.Arena().Alloc(g.m/2 + g.b)
	if err != nil {
		a.Arena().Free(raw)
		a.Arena().Free(acc)
		out.Free()
		return nil, err
	}
	sw, err := stream.NewWriter(a)
	if err != nil {
		a.Arena().Free(raw)
		a.Arena().Free(acc)
		a.Arena().Free(apBuf)
		out.Free()
		return nil, err
	}
	ap := &appender{out: out, w: sw, buf: apBuf, b: g.b}
	remaining := make([]int, len(leaves))
	for i, lf := range leaves {
		remaining[i] = lf.total
	}
	accLen := 0
	err = streamBlockSeqs(a, g, leaves, raw, func(leaf int, keys []int64) error {
		if leaves[leaf].total > g.m {
			// Digits exhausted: every key in this bucket is identical, so
			// it streams out unsorted.
			return ap.append(keys)
		}
		copy(acc[accLen:], keys)
		accLen += len(keys)
		remaining[leaf] -= len(keys)
		if remaining[leaf] == 0 {
			a.Pool().SortKeys(acc[:accLen])
			if err := ap.append(acc[:accLen]); err != nil {
				return err
			}
			accLen = 0
		}
		return nil
	})
	if err == nil {
		err = ap.flush()
	}
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	a.Arena().Free(raw)
	a.Arena().Free(acc)
	a.Arena().Free(apBuf)
	if err != nil {
		out.Free()
		return nil, err
	}
	a.Arena().SetPhase("")
	return Finish(a, out, in.Len(), start, false), nil
}

// collectRadixLeaves appends the tree's leaves in value order.
func collectRadixLeaves(node *radixNode, out *[]blockSeq) {
	if node.children != nil {
		for _, c := range node.children {
			collectRadixLeaves(c, out)
		}
		return
	}
	*out = append(*out, node.seq)
}

// radixRules: whole blocks of keys in a stated universe, at any N, in
// Theorem 7.2's ⌈log(N/M)/log(M/B)⌉ rounds (at most the key width's) + 1.
var radixRules = Rules{
	Pad: func(mem, n int) (int, error) {
		sq := memsort.Isqrt(mem)
		if sq < 2 || sq&(sq-1) != 0 {
			return 0, fmt.Errorf("needs M/B a power of two >= 2, got %d", sq)
		}
		return memsort.CeilDiv(max(n, 1), sq) * sq, nil
	},
	Capacity: func(mem int, _ float64, universe int64, payloads bool) (int, error) {
		switch {
		case universe <= 0:
			return mem * mem, errors.New("integer keys only (no universe hint)")
		case payloads:
			return mem * mem, errors.New("record payloads need a comparison sort")
		}
		return math.MaxInt, nil
	},
	Passes: func(mem, _, n, _ int, universe int64) (float64, float64, bool) {
		rounds := 0
		if n > mem {
			rounds = max(int(math.Ceil(math.Log(float64(n)/float64(mem))/math.Log(float64(radixFanout(mem))))), 1)
		}
		if universe > 1 {
			rounds = min(rounds, radixRounds(mem, universe))
		}
		p := float64(rounds) + 1
		return p, p, false
	},
	Envelope: radixEnvelope,
}

// radixEnvelope bounds RadixSort's scratch.  Every round's bucket runs stay
// on disk until step A, and keys skewed onto more than M equal values ride
// through every digit round the universe allows.  Round k rewrites at most
// the padded input plus one partial block per bucket of each node it
// refines: at most (M/B)^k nodes, each over M keys.  The input and output
// stripes add a row each (the allocator slack the planner adds), the
// scatter's memory-load stripes round up by one load, and the per-bucket
// disk rotations leave the most loaded disk at most (M/B)/2 rows above the
// mean.
func radixEnvelope(mem, d, padded int, universe int64) int {
	r := radixFanout(mem)
	env := 2*padded + mem + r*(d*memsort.Isqrt(mem))/2
	nodes := 1
	for k := 0; k < radixRounds(mem, universe); k++ {
		env += padded + min(nodes*mem, padded)
		nodes = min(nodes*r, padded/mem+1)
	}
	return env
}

// radixFanout is RadixSort's bucket count M/B (at least 2).
func radixFanout(mem int) int {
	return max(memsort.Isqrt(mem), 2)
}

// radixRounds is the number of digit rounds the universe allows:
// ⌈log₂(universe)/log₂(M/B)⌉, zero for a universe of at most one key.
func radixRounds(mem int, universe int64) int {
	if universe <= 1 {
		return 0
	}
	keyBits := bits.Len64(uint64(universe - 1))
	digit := bits.Len(uint(radixFanout(mem))) - 1 // log₂(M/B), M/B a power of two
	return memsort.CeilDiv(keyBits, digit)
}

// RadixSortPredictedPasses returns the Theorem 7.2 estimate
// (1+ν)·log(N/M)/log(M/B) + 1 with ν = 1/C (the paper's example choice
// ε = 1/C), for comparison against measured passes in the harness.
func RadixSortPredictedPasses(n, m, b, d int) float64 {
	c := float64(m) / float64(d*b)
	lnNM := logRatio(n, m)
	lnMB := logRatio(m, b)
	if lnMB == 0 {
		return 1
	}
	return (1+1/c)*lnNM/lnMB + 1
}

func logRatio(x, y int) float64 {
	// log2(x/y) computed exactly enough for the estimate.
	lx := bits.Len(uint(x - 1))
	ly := bits.Len(uint(y - 1))
	return float64(lx - ly)
}
