package repro

import (
	"context"

	"repro/internal/dist"
)

// DistConfig configures a DistSorter: the pdmd worker fleet one
// distributed sort job runs across (Workers, Client, PageKeys,
// Concurrency, RequestTimeout, Retries, Alpha) and the per-shard job knobs
// (Alg, Kernel, Memory, Backend, BlockLatencyUS, Label) that pass through
// to every shard's job descriptor; zero values select the documented
// defaults.
type DistConfig = dist.Config

// DistReport is the aggregated accounting of one distributed job: the
// per-shard passes and I/O as each worker measured them, the keys-weighted
// mean and critical-path passes across the fleet, and the splitters that
// shaped the shards.
type DistReport = dist.Report

// DistShardReport is one worker's slice of a distributed job.
type DistShardReport = dist.ShardReport

// DistSorter executes sort jobs across a fleet of pdmd workers.  The
// output of every method is bit-identical to its single-machine
// counterpart (Sort, SortRecords) for any worker count; see internal/dist
// for the determinism and failure contracts.
type DistSorter struct {
	c *dist.Coordinator
}

// NewDistSorter validates the config and builds the coordinator.
func NewDistSorter(cfg DistConfig) (*DistSorter, error) {
	c, err := dist.New(cfg)
	if err != nil {
		return nil, err
	}
	return &DistSorter{c: c}, nil
}

// Sort runs one distributed key sort and returns the globally sorted keys
// with the fleet's aggregated report.
func (d *DistSorter) Sort(ctx context.Context, keys []int64) ([]int64, *DistReport, error) {
	return d.c.Sort(ctx, keys)
}

// SortRecords runs one distributed full-record sort: payloads ride with
// their keys and the stable order among equal keys matches the
// single-machine SortRecords exactly.
func (d *DistSorter) SortRecords(ctx context.Context, keys []int64, payloads [][]byte) ([]int64, [][]byte, *DistReport, error) {
	return d.c.SortRecords(ctx, keys, payloads)
}
