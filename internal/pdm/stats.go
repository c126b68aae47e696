package pdm

import "fmt"

// Stats accumulates the I/O accounting of an Array.  All counters are in the
// PDM's native units: blocks and parallel I/O steps.
type Stats struct {
	// BlocksRead and BlocksWritten count individual block transfers.
	BlocksRead    int64
	BlocksWritten int64
	// ReadSteps and WriteSteps count parallel I/O steps.  A vectored request
	// touching k_d blocks on disk d costs max_d k_d steps.
	ReadSteps  int64
	WriteSteps int64

	// Pipeline observability, maintained by internal/stream.  These do not
	// affect the cost model: a transfer costs the same steps whether or not
	// it was overlapped.  They are scheduling-dependent (hence excluded from
	// determinism checks): PrefetchHits counts streamed read chunks whose
	// data was already resident when the consumer asked, PrefetchStalls
	// those the consumer had to wait for; WriteBehindHits/-Stalls are the
	// producer-side analogue for staged writes.
	PrefetchHits      int64
	PrefetchStalls    int64
	WriteBehindHits   int64
	WriteBehindStalls int64

	// Compute observability, maintained by the array's worker pool
	// (internal/par) and — like the pipeline counters — scheduling-dependent
	// and excluded from determinism checks: ComputeSections counts parallel
	// compute sections entered, ComputeWallNanos their summed wall time, and
	// ComputeBusyNanos the summed busy time of all workers inside them.  All
	// zero when the pool runs serially (Workers = 1 or small inputs).
	ComputeSections  int64
	ComputeWallNanos int64
	ComputeBusyNanos int64
}

// Add returns the componentwise sum of s and t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		BlocksRead:        s.BlocksRead + t.BlocksRead,
		BlocksWritten:     s.BlocksWritten + t.BlocksWritten,
		ReadSteps:         s.ReadSteps + t.ReadSteps,
		WriteSteps:        s.WriteSteps + t.WriteSteps,
		PrefetchHits:      s.PrefetchHits + t.PrefetchHits,
		PrefetchStalls:    s.PrefetchStalls + t.PrefetchStalls,
		WriteBehindHits:   s.WriteBehindHits + t.WriteBehindHits,
		WriteBehindStalls: s.WriteBehindStalls + t.WriteBehindStalls,
		ComputeSections:   s.ComputeSections + t.ComputeSections,
		ComputeWallNanos:  s.ComputeWallNanos + t.ComputeWallNanos,
		ComputeBusyNanos:  s.ComputeBusyNanos + t.ComputeBusyNanos,
	}
}

// Sub returns the componentwise difference s − t, for measuring a phase
// between two snapshots.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		BlocksRead:        s.BlocksRead - t.BlocksRead,
		BlocksWritten:     s.BlocksWritten - t.BlocksWritten,
		ReadSteps:         s.ReadSteps - t.ReadSteps,
		WriteSteps:        s.WriteSteps - t.WriteSteps,
		PrefetchHits:      s.PrefetchHits - t.PrefetchHits,
		PrefetchStalls:    s.PrefetchStalls - t.PrefetchStalls,
		WriteBehindHits:   s.WriteBehindHits - t.WriteBehindHits,
		WriteBehindStalls: s.WriteBehindStalls - t.WriteBehindStalls,
		ComputeSections:   s.ComputeSections - t.ComputeSections,
		ComputeWallNanos:  s.ComputeWallNanos - t.ComputeWallNanos,
		ComputeBusyNanos:  s.ComputeBusyNanos - t.ComputeBusyNanos,
	}
}

// Overlap reports the fraction of streamed read chunks served without a
// stall: 1.0 means the prefetcher always had the next chunk ready.  It
// returns 1 when nothing was streamed.
func (s Stats) Overlap() float64 {
	total := s.PrefetchHits + s.PrefetchStalls
	if total == 0 {
		return 1
	}
	return float64(s.PrefetchHits) / float64(total)
}

// ComputeSeconds returns the wall time, in seconds, spent inside parallel
// compute sections.
func (s Stats) ComputeSeconds() float64 {
	return float64(s.ComputeWallNanos) / 1e9
}

// WorkerUtilization reports the busy fraction of the worker pool over the
// parallel compute sections: busy/(wall·workers).  It returns 1 when no
// parallel section ran (nothing was wasted).
func (s Stats) WorkerUtilization(workers int) float64 {
	if s.ComputeWallNanos <= 0 || workers <= 0 {
		return 1
	}
	u := float64(s.ComputeBusyNanos) / (float64(s.ComputeWallNanos) * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}

// ReadPasses converts read steps into passes over n keys on a machine with
// stripe width dTimesB = D·B: one pass is n/(D·B) parallel read steps.
func (s Stats) ReadPasses(n, dTimesB int) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.ReadSteps) * float64(dTimesB) / float64(n)
}

// WritePasses is the write-side analogue of ReadPasses.
func (s Stats) WritePasses(n, dTimesB int) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.WriteSteps) * float64(dTimesB) / float64(n)
}

// Passes reports the number of passes over n keys, defined (as in the paper)
// by the read side: a pass is N/(DB) read I/O operations and the same number
// of writes.  Algorithms that read and write asymmetrically show the
// difference in ReadPasses/WritePasses.
func (s Stats) Passes(n, dTimesB int) float64 {
	r, w := s.ReadPasses(n, dTimesB), s.WritePasses(n, dTimesB)
	if w > r {
		return w
	}
	return r
}

// ReadEfficiency reports the fraction of full parallelism achieved by reads:
// blocks transferred divided by D·steps.  1.0 means every read step moved a
// block on every disk.
func (s Stats) ReadEfficiency(d int) float64 {
	if s.ReadSteps == 0 {
		return 1
	}
	return float64(s.BlocksRead) / float64(int64(d)*s.ReadSteps)
}

// WriteEfficiency is the write-side analogue of ReadEfficiency.
func (s Stats) WriteEfficiency(d int) float64 {
	if s.WriteSteps == 0 {
		return 1
	}
	return float64(s.BlocksWritten) / float64(int64(d)*s.WriteSteps)
}

// String renders the statistics compactly for logs and reports.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d blocks/%d steps, writes=%d blocks/%d steps",
		s.BlocksRead, s.ReadSteps, s.BlocksWritten, s.WriteSteps)
}
