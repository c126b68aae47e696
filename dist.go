package repro

import "repro/internal/dist"

// DistConfig configures a DistSorter: the pdmd worker fleet one
// distributed sort job runs across (Workers, Client, PageKeys,
// Concurrency, RequestTimeout) and the three per-shard job knobs (Alg,
// BlockLatencyUS, Label) that pass through to every shard's job
// descriptor; zero values select the documented defaults.
type DistConfig = dist.Config

// DistReport is the aggregated accounting of one distributed job: the
// per-shard passes and I/O as each worker measured them, the keys-weighted
// mean and critical-path passes across the fleet, and the splitters that
// shaped the shards.
type DistReport = dist.Report

// DistShardReport is one worker's slice of a distributed job.
type DistShardReport = dist.ShardReport

// DistSorter executes sort jobs across a fleet of pdmd workers: Sort runs
// one distributed key sort, SortRecords one distributed full-record sort.
// The output of either is bit-identical to its single-machine counterpart
// (Machine.Sort, Machine.SortRecords, stable among equal keys) for any
// worker count; see internal/dist for the determinism and failure
// contracts.
type DistSorter = dist.Coordinator

// NewDistSorter validates the config and builds the coordinator.
func NewDistSorter(cfg DistConfig) (*DistSorter, error) { return dist.New(cfg) }
