package memsort

import "math"

// infKey is the sentinel larger than every real key; exhausted loser-tree
// lanes carry it.  Real inputs must not contain MaxInt64 (the public facade
// documents and enforces this).
const infKey = math.MaxInt64

// LoserTree merges k sorted lanes with ⌈log₂ k⌉ comparisons per emitted key.
// It is the kernel of every one-pass k-way merge phase in the repository
// (the (l,m)-merge's group merges, multiway merge sort, and the k-way merge
// ablation).  Each internal node stores the loser's key beside its lane, so
// a replay up the root path reads one contiguous node per level and never
// chases the lane slices.
type LoserTree struct {
	lanes [][]int64
	pos   []int
	// node[0] is the overall winner; node[1:] hold each match's loser.
	node []treeNode
}

// treeNode is one entrant of a match: a lane and its current head key
// (infKey once the lane is exhausted).
type treeNode struct {
	key  int64
	lane int
}

// beats reports whether a wins a match against b: smaller key, ties to the
// lower lane, which makes the merge stable in lane order.
func (a treeNode) beats(b treeNode) bool {
	return a.key < b.key || (a.key == b.key && a.lane < b.lane)
}

// NewLoserTree builds a loser tree over the given sorted lanes.  Empty lanes
// are allowed.  The lanes are only ever read.
func NewLoserTree(lanes [][]int64) *LoserTree {
	if len(lanes) == 0 {
		lanes = [][]int64{nil}
	}
	k := len(lanes)
	t := &LoserTree{
		lanes: lanes,
		pos:   make([]int, k),
		node:  make([]treeNode, k),
	}
	for i := range t.node {
		t.node[i].lane = -1
	}
	// Play every lane up the tree: the first entrant to reach a match waits
	// there, the second plays it and the winner moves on.
	for lane := range lanes {
		win := treeNode{t.head(lane), lane}
		n := (lane + k) / 2
		for ; n >= 1; n /= 2 {
			if t.node[n].lane == -1 {
				t.node[n] = win
				break
			}
			if t.node[n].beats(win) {
				t.node[n], win = win, t.node[n]
			}
		}
		if n == 0 {
			t.node[0] = win
		}
	}
	return t
}

// head returns the lane's next unconsumed key, or infKey when it has none.
func (t *LoserTree) head(lane int) int64 {
	if l := t.lanes[lane]; t.pos[lane] < len(l) {
		return l[t.pos[lane]]
	}
	return infKey
}

// Empty reports whether all lanes are exhausted.
func (t *LoserTree) Empty() bool {
	return t.node[0].key == infKey
}

// Pop removes and returns the smallest head.  Ties resolve to the
// lowest-numbered lane, making the merge stable in lane order.
func (t *LoserTree) Pop() int64 {
	w := t.node[0]
	t.pos[w.lane]++
	t.sift(treeNode{t.head(w.lane), w.lane})
	return w.key
}

// PopRun pops a maximal run of consecutive keys from the current winning lane
// into dst and returns how many it emitted (at least 1; at most len(dst)).
// It is the galloping fast path of the loser tree: one walk up the winner's
// root path finds the runner-up — the best head among all other lanes — and a
// gallop search (exponential + binary) finds how far the winner's lane stays
// below that bound, so a run of r keys costs O(log r) comparisons plus a bulk
// copy instead of r sifts.  The tie rule matches sift: the winner's lane may
// emit keys equal to the runner-up's head only when its lane index is lower.
func (t *LoserTree) PopRun(dst []int64) int {
	if len(dst) == 0 {
		return 0
	}
	w := t.node[0].lane
	lane := t.lanes[w][t.pos[w]:]
	if len(lane) == 0 {
		// Exhausted lane: behave like Pop and emit the sentinel.
		dst[0] = infKey
		return 1
	}
	k := len(t.node)
	n := len(lane)
	if k > 1 {
		ru := t.node[(w+k)/2]
		for p := (w + k) / 4; p >= 1; p /= 2 {
			if t.node[p].beats(ru) {
				ru = t.node[p]
			}
		}
		if w < ru.lane {
			n = gallopLessEq(lane, ru.key)
		} else {
			n = gallopLess(lane, ru.key)
		}
	}
	if n > len(dst) {
		n = len(dst)
	}
	if n < 1 {
		n = 1 // the winner's own head always beats the runner-up
	}
	copy(dst[:n], lane[:n])
	t.pos[w] += n
	t.sift(treeNode{t.head(w), w})
	return n
}

// sift replays a lane whose head changed against the losers on its root
// path, leaving the new overall winner at node[0].
func (t *LoserTree) sift(win treeNode) {
	for n := (win.lane + len(t.node)) / 2; n >= 1; n /= 2 {
		if t.node[n].beats(win) {
			t.node[n], win = win, t.node[n]
		}
	}
	t.node[0] = win
}

// Galloping pays while the lanes hand over long runs and loses once they
// interleave key by key: a PopRun call costs about two plain Pops whatever
// it emits.  MergeRuns therefore watches the mean run length over windows of
// gallopWindow calls — TimSort's min-gallop, applied to the k-way tree — and
// gives up when a window emits fewer than gallopMinRun keys per call.
const (
	gallopWindow = 32
	gallopMinRun = 2
)

// MergeRuns emits into dst by PopRun for as long as that pays and returns
// how many keys it emitted.  A result short of len(dst) means the lanes
// interleave too finely to gallop (uniform keys: about one key per run); the
// caller finishes with PopAll, or with Rest and a sort of the tail.  The
// decision depends only on the lanes' keys.  len(dst) must not exceed the
// number of keys left in the tree.
func (t *LoserTree) MergeRuns(dst []int64) int {
	i := 0
	for i < len(dst) {
		start := i
		for c := 0; c < gallopWindow && i < len(dst); c++ {
			i += t.PopRun(dst[i:])
		}
		if i < len(dst) && i-start < gallopWindow*gallopMinRun {
			break
		}
	}
	return i
}

// PopAll fills dst with the next len(dst) keys, one Pop each: the merge for
// finely interleaved lanes, where every key costs exactly one replay.
func (t *LoserTree) PopAll(dst []int64) {
	for i := range dst {
		dst[i] = t.Pop()
	}
}

// Rest copies the lanes' unconsumed suffixes into dst (len = the number of
// keys left in the tree), lane after lane.  All of them are ≥ every key
// emitted so far, so sorting dst completes the merge.
func (t *LoserTree) Rest(dst []int64) {
	n := 0
	for i, l := range t.lanes {
		n += copy(dst[n:], l[t.pos[i]:])
	}
}

// MultiMerge merges the sorted lanes into dst, which must have length equal
// to the total lane length.  For k ≤ 2 it falls back to copy/MergeBinary;
// otherwise the loser tree gallops while the lanes hand over runs and pops
// key by key once they stop (see MergeRuns).  It allocates no key buffers
// and only reads the lanes.
func MultiMerge(dst []int64, lanes [][]int64) {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	if len(dst) != total {
		panic("memsort: MultiMerge destination size mismatch")
	}
	switch len(lanes) {
	case 0:
		return
	case 1:
		copy(dst, lanes[0])
		return
	case 2:
		MergeBinary(dst, lanes[0], lanes[1])
		return
	}
	t := NewLoserTree(lanes)
	t.PopAll(dst[t.MergeRuns(dst):])
}

// MultiMergeBinary merges k sorted lanes by repeated pairwise binary merging
// (⌈log₂ k⌉ rounds over the data).  It exists as the baseline for the
// loser-tree ablation (experiments.A4MergeKernel): identical output, more
// key moves.
func MultiMergeBinary(dst []int64, lanes [][]int64) {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	if len(dst) != total {
		panic("memsort: MultiMergeBinary destination size mismatch")
	}
	if len(lanes) == 0 {
		return
	}
	cur := make([][]int64, len(lanes))
	for i, l := range lanes {
		cur[i] = append([]int64(nil), l...)
	}
	for len(cur) > 1 {
		next := cur[:0:0]
		for i := 0; i+1 < len(cur); i += 2 {
			merged := make([]int64, len(cur[i])+len(cur[i+1]))
			MergeBinary(merged, cur[i], cur[i+1])
			next = append(next, merged)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	copy(dst, cur[0])
}
