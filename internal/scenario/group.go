package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pdm"
	"repro/internal/stream"
)

// Agg is one group's aggregate: Count pairs carried the group's Key, and
// Sum/Min/Max summarize their payload words (the key itself when the
// input has no payload column).
type Agg struct {
	Key   int64 `json:"key"`
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// PartitionIndex is the hash route shared by the partitioning kernel and
// its planners/callers: pre-counting partition sizes with this function
// yields exactly the layout GroupPartition scatters.  Fibonacci hashing
// spreads adjacent keys across partitions without any data-dependent
// state, so the route is deterministic.
func PartitionIndex(key int64, parts int) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int((h >> 17) % uint64(parts))
}

// table accumulates aggregates for at most cap distinct keys.
type table struct {
	idx  map[int64]int
	aggs []Agg
	cap  int
}

func newTable(cap int) *table {
	return &table{idx: make(map[int64]int), cap: cap}
}

func (t *table) add(key, payload int64) error {
	i, ok := t.idx[key]
	if !ok {
		if len(t.aggs) >= t.cap {
			return ErrOverflow
		}
		i = len(t.aggs)
		t.idx[key] = i
		t.aggs = append(t.aggs, Agg{Key: key, Min: payload, Max: payload})
	}
	a := &t.aggs[i]
	a.Count++
	a.Sum += payload
	if payload < a.Min {
		a.Min = payload
	}
	if payload > a.Max {
		a.Max = payload
	}
	return nil
}

// sorted returns the aggregates ordered by key.  The map is never
// iterated for output, so the result is deterministic.
func (t *table) sorted() []Agg {
	sort.Slice(t.aggs, func(i, j int) bool { return t.aggs[i].Key < t.aggs[j].Key })
	return t.aggs
}

// pairGeometry validates the pair layout shared by both group-by routes.
func pairGeometry(a *pdm.Array, in *pdm.Stripe, pairWords int) error {
	stripe := a.StripeWidth()
	if pairWords != 1 && pairWords != 2 {
		return fmt.Errorf("scenario: group-by pairs of %d words (want 1 or 2)", pairWords)
	}
	if a.B()%pairWords != 0 {
		return fmt.Errorf("scenario: pair of %d words straddles blocks of B = %d", pairWords, a.B())
	}
	if in.Len() <= 0 || in.Len()%stripe != 0 {
		return fmt.Errorf("scenario: group-by input %d is not stripe-padded (stripe %d)", in.Len(), stripe)
	}
	return nil
}

// GroupOnePass aggregates the padded input in one charged read pass,
// hashing every pair into an in-memory table: the route the planner picks
// when the distinct groups fit in memory.  The input holds (key, payload)
// pairs of pairWords words (pairWords = 1 means the key is its own
// payload); pairs whose key is the MaxInt64 padding sentinel are skipped.
// More than maxGroups distinct keys abort with ErrOverflow — the caller
// falls back to the partitioned route or a full sort.  Aggregates return
// sorted by key.
func GroupOnePass(a *pdm.Array, in *pdm.Stripe, pairWords, maxGroups int) ([]Agg, error) {
	if err := pairGeometry(a, in, pairWords); err != nil {
		return nil, err
	}
	stripe := a.StripeWidth()
	a.Arena().SetPhase("scenario/group")
	defer a.Arena().SetPhase("")
	buf, err := a.Arena().Alloc(stripe)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)
	rd, err := stream.NewStripeReader(in, 0, in.Len(), stripe)
	if err != nil {
		return nil, err
	}
	defer rd.Close()

	t := newTable(maxGroups)
	for off := 0; off < in.Len(); off += stripe {
		if err := rd.FillFlat(buf); err != nil {
			return nil, err
		}
		if err := tallyPairs(t, buf, pairWords); err != nil {
			return nil, err
		}
	}
	return t.sorted(), nil
}

// tallyPairs feeds one chunk of pairs into the table, skipping padding.
func tallyPairs(t *table, flat []int64, pairWords int) error {
	for i := 0; i < len(flat); i += pairWords {
		key := flat[i]
		if key == math.MaxInt64 {
			continue
		}
		payload := key
		if pairWords == 2 {
			payload = flat[i+1]
		}
		if err := t.add(key, payload); err != nil {
			return err
		}
	}
	return nil
}

// GroupPartition aggregates inputs with more distinct groups than memory
// holds: a scatter pass hashes every pair to one of len(sizes) partition
// stripes, then each partition — now small enough to table in memory — is
// read back and aggregated.  sizes[p] must be the exact pair count the
// PartitionIndex route sends to partition p (callers count it on the
// client side before loading), so each partition stripe is allocated
// tightly: its capacity is the pair count rounded up to whole blocks,
// with MaxInt64-key padding in the final block.
//
// The scatter stages one block per partition and hands each finished block
// to a stream.Scatter, which writes one block per disk per step (partition
// p's stripe is skewed by p, so partitions filling in step spread round the
// disks): the write costs the ⌈(blocks+parts)/D⌉ steps plan.GroupByPlan
// prices, within a few percent.  A partition whose distinct keys still
// exceed maxGroups aborts with ErrOverflow.  Aggregates return sorted by
// key (partitions hold disjoint key sets, so a global sort of the
// concatenation is exact).
func GroupPartition(a *pdm.Array, in *pdm.Stripe, pairWords int, sizes []int, maxGroups int) ([]Agg, error) {
	if err := pairGeometry(a, in, pairWords); err != nil {
		return nil, err
	}
	parts := len(sizes)
	if parts < 2 {
		return nil, fmt.Errorf("scenario: partitioned group-by needs ≥ 2 partitions, got %d", parts)
	}
	stripe, b := a.StripeWidth(), a.B()
	a.Arena().SetPhase("scenario/group")
	defer a.Arena().SetPhase("")

	// Tight per-partition stripes, one staging block each.
	pstripes := make([]*pdm.Stripe, parts)
	free := func() {
		for _, ps := range pstripes {
			if ps != nil {
				ps.Free()
			}
		}
	}
	defer free()
	for p, sz := range sizes {
		if sz < 0 {
			return nil, fmt.Errorf("scenario: partition %d has negative size %d", p, sz)
		}
		words := sz * pairWords
		padded := (words + b - 1) / b * b
		if padded == 0 {
			padded = b
		}
		ps, err := a.NewStripeSkew(padded, p)
		if err != nil {
			return nil, err
		}
		pstripes[p] = ps
	}
	staging, err := a.Arena().Alloc(parts * b)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(staging)
	buf, err := a.Arena().Alloc(stripe)
	if err != nil {
		return nil, err
	}
	defer a.Arena().Free(buf)

	sc, err := stream.NewScatter(a)
	if err != nil {
		return nil, err
	}
	defer sc.Close()

	fill := make([]int, parts)  // staged words per partition
	wrote := make([]int, parts) // words flushed to the partition stripe
	queueBlock := func(p int) error {
		ps := pstripes[p]
		if wrote[p]+b > ps.Len() {
			return fmt.Errorf("scenario: partition %d overflows its declared size", p)
		}
		wrote[p] += b
		fill[p] = 0
		return sc.Add(ps.BlockAddr(wrote[p]/b-1), staging[p*b:(p+1)*b])
	}
	scatter := func(key, payload int64) error {
		p := PartitionIndex(key, parts)
		base := p * b
		staging[base+fill[p]] = key
		fill[p]++
		if pairWords == 2 {
			staging[base+fill[p]] = payload
			fill[p]++
		}
		if fill[p] == b {
			return queueBlock(p)
		}
		return nil
	}

	rd, err := stream.NewStripeReader(in, 0, in.Len(), stripe)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	for off := 0; off < in.Len(); off += stripe {
		if err := rd.FillFlat(buf); err != nil {
			return nil, err
		}
		for i := 0; i < len(buf); i += pairWords {
			key := buf[i]
			if key == math.MaxInt64 {
				continue
			}
			payload := key
			if pairWords == 2 {
				payload = buf[i+1]
			}
			if err := scatter(key, payload); err != nil {
				return nil, err
			}
		}
	}
	// Pad and queue the partial tail blocks, then drain the scatter before
	// the read-back.
	for p := 0; p < parts; p++ {
		if fill[p] == 0 {
			continue
		}
		for i := fill[p]; i < b; i += pairWords {
			staging[p*b+i] = math.MaxInt64
			if pairWords == 2 {
				staging[p*b+i+1] = 0
			}
		}
		if err := queueBlock(p); err != nil {
			return nil, err
		}
	}
	if err := sc.Flush(); err != nil {
		return nil, err
	}

	// Read each partition back and aggregate it in isolation.
	var out []Agg
	for p, ps := range pstripes {
		if wrote[p] == 0 {
			continue
		}
		prd, err := stream.NewStripeReader(ps, 0, wrote[p], stripe)
		if err != nil {
			return nil, err
		}
		t := newTable(maxGroups)
		for off := 0; off < wrote[p]; off += stripe {
			c := stripe
			if c > wrote[p]-off {
				c = wrote[p] - off
			}
			if err := prd.FillFlat(buf[:c]); err != nil {
				prd.Close()
				return nil, err
			}
			if err := tallyPairs(t, buf[:c], pairWords); err != nil {
				prd.Close()
				return nil, err
			}
		}
		prd.Close()
		out = append(out, t.aggs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
