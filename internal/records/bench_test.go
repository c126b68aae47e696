package records

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pdm"
)

// latencyFileArray models a realistic device: file-backed disks decorated
// with a fixed per-block service time, the backend where batching and
// prefetch pay off in wall clock.
func latencyFileArray(b *testing.B, mem, d, blk int, perBlock time.Duration) *pdm.Array {
	b.Helper()
	disks, err := pdm.NewFileDisks(b.TempDir(), d, blk)
	if err != nil {
		b.Fatal(err)
	}
	for i, dk := range disks {
		disks[i] = pdm.LatencyDisk{Disk: dk, PerBlock: perBlock}
	}
	a, err := pdm.NewWithDisks(pdm.Config{
		D: d, B: blk, Mem: mem,
		Pipeline: pdm.PipelineConfig{Prefetch: 2, WriteBehind: 2},
	}, disks)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// The paired permutation benchmarks: the distribution pass against the
// naive per-record gather, on identical latency-modeled file disks.  The
// ratio is the headline number for the records layer — the naive gather
// pays one positioning delay per record, the distribution pass one per
// stripe of every level.
func benchPermute(b *testing.B, naive bool) {
	const n = 2000
	payloads := genPayloads(n, 1, 24, 42)
	perm := randPerm(n, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := latencyFileArray(b, 1024, 8, 32, 50*time.Microsecond)
		b.StartTimer()
		var err error
		if naive {
			_, err = naiveGather(a, payloads, perm)
		} else {
			_, err = Permute(a, payloads, perm)
		}
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		a.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkPermuteDistribution(b *testing.B) { benchPermute(b, false) }
func BenchmarkPermuteNaiveGather(b *testing.B)  { benchPermute(b, true) }

// naiveGather is the permutation baseline the distribution pass is
// measured against: one vectored read per record, fetching the store
// blocks covering the record in output order and assembling output chunks
// in memory.  For records much smaller than a block it re-reads the same
// store blocks over and over — the access pattern whose cost the paper's
// model makes visible.
func naiveGather(a *pdm.Array, payloads [][]byte, perm []int) (*Result, error) {
	p, err := newPermuter(a, payloads, perm)
	if err != nil {
		return nil, err
	}
	if p.words == 0 {
		res := p.result(pdm.Stats{})
		return res, p.unload(res)
	}
	store, err := p.loadStore(payloads)
	if err != nil {
		return nil, err
	}
	before := a.Stats()
	if err := p.gatherFrom(store); err != nil {
		return nil, err
	}
	res := p.result(a.Stats().Sub(before))
	if err := p.unload(res); err != nil {
		return nil, err
	}
	return res, nil
}

// gatherFrom reads each record's store blocks with one charged request per
// record, in output order, flushing assembled output chunks sequentially.
func (p *permuter) gatherFrom(store *pdm.Stripe) (err error) {
	defer store.Free()
	out, err := p.a.NewStripe(p.padded)
	if err != nil {
		return err
	}
	p.out = out
	defer func() {
		if err != nil && p.out != nil {
			p.out.Free()
			p.out = nil
		}
	}()
	// srcOff[i] is record i's word offset in the store (original order).
	srcOff := make([]int, p.n)
	off := 0
	for i := 0; i < p.n; i++ {
		srcOff[i] = off
		off += p.wlen[i]
	}
	maxBlocks := 0
	for _, w := range p.wlen {
		if nb := (w + 2*(p.b-1)) / p.b; nb > maxBlocks {
			maxBlocks = nb
		}
	}
	scratch, err := p.a.Arena().Alloc(maxBlocks * p.b)
	if err != nil {
		return err
	}
	defer p.a.Arena().Free(scratch)
	chunkLen := p.a.StripeWidth()
	chunk, err := p.a.Arena().Alloc(chunkLen)
	if err != nil {
		return err
	}
	defer p.a.Arena().Free(chunk)
	flushed := 0
	flush := func(upTo int) error {
		for flushed+chunkLen <= upTo {
			addrs, err := p.out.AddrRange(flushed, chunkLen)
			if err != nil {
				return err
			}
			if err := p.a.WriteV(addrs, splitFlat(chunk, p.b)); err != nil {
				return err
			}
			for i := range chunk {
				chunk[i] = 0
			}
			flushed += chunkLen
		}
		return nil
	}
	for j := 0; j < p.n; j++ {
		i := p.perm[j]
		if p.wlen[i] == 0 {
			continue
		}
		first := srcOff[i] / p.b
		last := (srcOff[i] + p.wlen[i] - 1) / p.b
		nb := last - first + 1
		addrs := make([]pdm.BlockAddr, nb)
		for k := range addrs {
			addrs[k] = store.BlockAddr(first + k)
		}
		if err := p.a.ReadV(addrs, splitFlat(scratch[:nb*p.b], p.b)); err != nil {
			return fmt.Errorf("records: gather of record %d (output position %d): %w", i, j, err)
		}
		words := scratch[srcOff[i]-first*p.b : srcOff[i]-first*p.b+p.wlen[i]]
		for w := 0; w < p.wlen[i]; w++ {
			d := p.starts[j] + w
			for d-flushed >= chunkLen {
				if err := flush(flushed + chunkLen); err != nil {
					return err
				}
			}
			chunk[d-flushed] = words[w]
		}
	}
	if flushed < p.padded {
		addrs, err := p.out.AddrRange(flushed, p.padded-flushed)
		if err != nil {
			return err
		}
		if err := p.a.WriteV(addrs, splitFlat(chunk[:p.padded-flushed], p.b)); err != nil {
			return err
		}
	}
	return nil
}

func splitFlat(flat []int64, b int) [][]int64 {
	out := make([][]int64, len(flat)/b)
	for i := range out {
		out[i] = flat[i*b : (i+1)*b]
	}
	return out
}
