package pdm

import (
	"fmt"
)

// StripeRef names a stripe purely by its physical placement.  Together
// with the array geometry (D, B) it fully determines every block
// address the stripe maps to, so a stripe written before a crash can be
// re-adopted by a fresh Array over the same disks.
type StripeRef struct {
	Row0 int `json:"row0"`
	Skew int `json:"skew"`
	Keys int `json:"keys"`
}

// Ref returns the stripe's placement record for a checkpoint manifest.
func (s *Stripe) Ref() StripeRef { return StripeRef{Row0: s.row0, Skew: s.skew, Keys: s.n} }

// Extent is one free run of rows in an allocator snapshot.
type Extent struct {
	Start int `json:"start"`
	Rows  int `json:"rows"`
}

// AllocState is an exact snapshot of the row allocator: the high-water
// mark plus the free list.  Restoring it on a fresh array makes every
// subsequent allocation land on the same rows the uninterrupted run
// would have used — the placement half of the resume-bit-identity
// invariant.
type AllocState struct {
	Next int      `json:"next"`
	Free []Extent `json:"free,omitempty"`
}

// ViewRef names a strided sequential view into one of a checkpoint's
// stripes: keys are read as blocks StartBlk, StartBlk+StrideBlk, … of
// the stripe at index Stripe in the list the algorithm designates
// (ThreePass2 stores its merge views against the "backing" list).
type ViewRef struct {
	Stripe    int `json:"stripe"`
	StartBlk  int `json:"startBlk"`
	StrideBlk int `json:"strideBlk"`
	Keys      int `json:"keys"`
}

// Checkpoint is the manifest an algorithm emits at a completed pass
// boundary: which passes are done, which scratch stripes are live, the
// allocator state, and the cumulative statistics up to the boundary.
// It is the unit the scheduler journals and the resume point a
// restarted job is handed back.
type Checkpoint struct {
	// Alg is the algorithm's resume tag; TakeResume only matches a
	// checkpoint whose Alg and N equal the caller's.
	Alg string `json:"alg"`
	// Pass counts completed passes: a resumed run skips passes 1..Pass.
	Pass int `json:"pass"`
	// N is the padded input length in keys.
	N int `json:"n"`
	// Alloc is the allocator snapshot taken at the boundary.
	Alloc AllocState `json:"alloc"`
	// Stripes holds the live scratch stripes by role ("runs", "cols",
	// "bands", "backing", …).
	Stripes map[string][]StripeRef `json:"stripes,omitempty"`
	// Views holds strided views for algorithms whose pass output is
	// finer-grained than whole stripes.
	Views []ViewRef `json:"views,omitempty"`
	// Params carries small algorithm-specific integers a resume needs.
	Params map[string]int `json:"params,omitempty"`
	// Stats is the cumulative statistics at the boundary; a resumed
	// array seeds its counters from it so the final report is
	// bit-identical (deterministic subset) to an uninterrupted run.
	Stats Stats `json:"stats"`
}

// Checkpointer receives each completed pass boundary.  Returning an
// error aborts the run (the scheduler's drain path returns one to stop
// cleanly at the boundary it just journaled).
type Checkpointer func(Checkpoint) error

// SetCheckpointer installs the pass-boundary callback, which receives
// whole manifests.  A nil checkpointer (the default) makes PassDone a
// cheap no-op.
func (a *Array) SetCheckpointer(ck Checkpointer) { a.setCheckpointer(ck, true) }

// SetPassHook installs a pass-boundary callback that wants no manifest: it
// sees each boundary's Alg, Pass and N only, a place where a run may stop
// (a drain), and the algorithms build no stripe or view records for it
// (Manifests).  It replaces any checkpointer.
func (a *Array) SetPassHook(ck Checkpointer) { a.setCheckpointer(ck, false) }

func (a *Array) setCheckpointer(ck Checkpointer, manifests bool) {
	a.mu.Lock()
	a.ckpt, a.manifests = ck, ck != nil && manifests
	a.mu.Unlock()
}

// Manifests reports whether the installed checkpointer wants whole
// manifests: the live stripe, view and parameter sets an algorithm fills
// in before PassDone.  Without one the algorithms skip building them.
func (a *Array) Manifests() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.manifests
}

// PassDone reports a completed pass boundary.  The caller fills Alg,
// Pass, N and, when Manifests, the live stripe/view/param sets; PassDone
// completes a whole manifest with the allocator snapshot and cumulative
// statistics, then hands it to the installed checkpointer, if any.
func (a *Array) PassDone(cp Checkpoint) error {
	a.mu.Lock()
	ck, whole := a.ckpt, a.manifests
	if whole {
		cp.Alloc = AllocState{Next: a.alloc.next}
		for _, e := range a.alloc.free {
			cp.Alloc.Free = append(cp.Alloc.Free, Extent{Start: e.start, Rows: e.n})
		}
		cp.Stats = a.stats
	}
	a.mu.Unlock()
	if ck == nil {
		return nil
	}
	if whole {
		cp.Stats.ComputeSections, cp.Stats.ComputeWallNanos, cp.Stats.ComputeBusyNanos = a.pool.Counters()
	}
	return ck(cp)
}

// SetResume arms the array with a resume point.  The owning algorithm
// claims it via TakeResume; until then the array behaves normally.
func (a *Array) SetResume(cp *Checkpoint) {
	a.mu.Lock()
	a.resume = cp
	a.resumeConsumed = false
	a.mu.Unlock()
}

// TakeResume hands the armed resume point to the algorithm that owns it
// (matching Alg and padded N), or nil.  Claiming the checkpoint
// restores the allocator snapshot and seeds the statistics with the
// checkpoint's cumulative counters, so the rest of the run allocates
// and accounts exactly as the uninterrupted run would have.
func (a *Array) TakeResume(alg string, n int) *Checkpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	cp := a.resume
	if cp == nil || cp.Alg != alg || cp.N != n {
		return nil
	}
	a.resume = nil
	a.resumeConsumed = true
	a.alloc.next = cp.Alloc.Next
	a.alloc.peak = max(a.alloc.peak, cp.Alloc.Next)
	a.alloc.free = a.alloc.free[:0]
	for _, e := range cp.Alloc.Free {
		a.alloc.free = append(a.alloc.free, extent{start: e.Start, n: e.Rows})
	}
	a.stats = a.stats.Add(cp.Stats)
	return cp
}

// ResumeConsumed reports whether a TakeResume claimed the armed resume
// point — the provenance bit between "resumed from pass k" and
// "restarted from input".
func (a *Array) ResumeConsumed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resumeConsumed
}

// AdoptStripe rebuilds a Stripe handle from a checkpoint reference
// without touching the allocator — the restored AllocState already
// accounts its rows as in use.  Only light shape validation is
// possible; a manifest that lies about its stripes surfaces later as
// an I/O error (reads past the disks' write frontier), which the
// scheduler converts into a restart-from-input.
func (a *Array) AdoptStripe(ref StripeRef) (*Stripe, error) {
	b, d := a.cfg.B, a.cfg.D
	if ref.Keys <= 0 || ref.Keys%b != 0 {
		return nil, fmt.Errorf("%w: adopt stripe of %d keys with B = %d", ErrUnaligned, ref.Keys, b)
	}
	nb := ref.Keys / b
	rows := (nb + d - 1) / d
	skew := ref.Skew % d
	if skew < 0 {
		skew += d
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if ref.Row0 < 0 || ref.Row0+rows > a.alloc.next {
		return nil, fmt.Errorf("%w: adopt rows [%d, %d) with allocator high water %d",
			ErrOutOfRange, ref.Row0, ref.Row0+rows, a.alloc.next)
	}
	return &Stripe{a: a, row0: ref.Row0, skew: skew, n: ref.Keys, nb: nb, rows: rows}, nil
}
