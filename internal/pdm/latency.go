package pdm

import "time"

// LatencyDisk decorates a Disk with a fixed service time per block
// operation, modeling a device with real positioning and transfer latency
// (a spinning disk, a network volume).  The wait parks the calling
// goroutine, so overlapped transfers genuinely hide it, exactly as they
// would on hardware: the streaming layer's prefetch/write-behind, and the
// per-disk fan-out an Array keeps for this one disk type (NewWithDisks
// looks for it, unwrapped).  Intended for benchmarks and tests; the cost
// accounting (Stats) is unaffected.
type LatencyDisk struct {
	Disk
	// PerBlock is the added service time of every ReadBlock/WriteBlock.
	PerBlock time.Duration
}

// ReadBlock implements Disk.
func (d LatencyDisk) ReadBlock(off int, dst []int64) error {
	time.Sleep(d.PerBlock)
	return d.Disk.ReadBlock(off, dst)
}

// WriteBlock implements Disk.
func (d LatencyDisk) WriteBlock(off int, src []int64) error {
	time.Sleep(d.PerBlock)
	return d.Disk.WriteBlock(off, src)
}
