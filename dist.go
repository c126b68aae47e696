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
// Like Machine.Sort and Machine.SortRecords, both sort the caller's slices
// in place and leave them untouched on an error; the result is
// bit-identical to theirs (stable among equal keys) for any worker count.
// Between jobs the sorter keeps one partition buffer (8 bytes a key, and
// 24 more a record after a records sort) for each job it ran at the same
// time, so repeated sorts on one DistSorter allocate none; a sorter that
// runs one sort, as pdmctl sort does, gains nothing from it.  A kept
// buffer is as large as the largest job that used it, and it lives as long
// as the sorter unless a job of less than half its size, which lets it go
// to the collector, uses it.  See internal/dist for the determinism and
// failure contracts.
type DistSorter = dist.Coordinator

// NewDistSorter validates the config and builds the coordinator.
func NewDistSorter(cfg DistConfig) (*DistSorter, error) { return dist.New(cfg) }
