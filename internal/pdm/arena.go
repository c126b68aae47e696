package pdm

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Arena meters the internal memory used by an algorithm.  Every in-core
// buffer a PDM algorithm holds must be obtained from the array's arena, so
// the peak usage recorded here is the algorithm's true internal-memory
// footprint in keys, checked against the model's M (times the configured
// slack) in tests.
type Arena struct {
	mu       sync.Mutex
	capacity int
	used     int
	peak     int
	refused  int
	phases   map[string]int
	phase    string
	kept     [][]int64 // buffers Recycle keeps for Take, least recent first
	keptKeys int       // their summed capacities, at most capacity
	made     int       // keys Take allocated because nothing kept fit
}

// NewArena returns an arena with the given capacity in keys.
func NewArena(capacity int) *Arena {
	return &Arena{capacity: capacity, phases: make(map[string]int)}
}

// Alloc reserves and returns a zeroed buffer of n keys, or
// ErrMemoryExceeded if the reservation would exceed the arena capacity.
func (ar *Arena) Alloc(n int) ([]int64, error) {
	if err := ar.Reserve(n); err != nil {
		return nil, err
	}
	return make([]int64, n), nil
}

// MustAlloc is Alloc for callers (tests, examples) that treat exhaustion as
// a fatal bug.
func (ar *Arena) MustAlloc(n int) []int64 {
	buf, err := ar.Alloc(n)
	if err != nil {
		panic(err)
	}
	return buf
}

// Free releases a buffer previously returned by Alloc.  Only the length
// matters; the arena does not track identity.
func (ar *Arena) Free(buf []int64) {
	ar.Release(len(buf))
}

// Take is Alloc for staging and scratch the caller overwrites before
// reading it: the n keys are reserved exactly as Alloc reserves them, but
// the buffer is the smallest Recycle kept whose capacity holds n keys,
// resliced to n, its words not zeroed.  Only when none does is a buffer
// allocated.
func (ar *Arena) Take(n int) ([]int64, error) {
	if err := ar.Reserve(n); err != nil {
		return nil, err
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	best := -1
	for i, buf := range ar.kept {
		if cap(buf) >= n && (best < 0 || cap(buf) < cap(ar.kept[best])) {
			best = i
		}
	}
	if best < 0 {
		ar.made += n
		return make([]int64, n), nil
	}
	buf := ar.kept[best]
	ar.kept = slices.Delete(ar.kept, best, best+1)
	ar.keptKeys -= cap(buf)
	return buf[:n], nil
}

// Recycle is Free that keeps buf for a later Take: the keys are released
// either way.  The kept buffers' capacities sum to at most the arena's
// capacity, the least recently recycled going first to make room, so the
// memory an arena holds for reuse never exceeds what it meters.
func (ar *Arena) Recycle(buf []int64) {
	ar.Release(len(buf))
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if cap(buf) > ar.capacity {
		return
	}
	for ar.keptKeys+cap(buf) > ar.capacity {
		ar.keptKeys -= cap(ar.kept[0])
		ar.kept = slices.Delete(ar.kept, 0, 1)
	}
	ar.kept = append(ar.kept, buf)
	ar.keptKeys += cap(buf)
}

// Reserve charges n keys against the arena without handing out a buffer —
// the sub-budgeting primitive the job scheduler carves per-job memory
// envelopes with: a whole child machine's arena capacity is reserved on a
// global ledger arena at admission and Released when the job's resources
// are torn down, so concurrent jobs can never oversubscribe the machine's
// internal memory.  It fails with ErrMemoryExceeded exactly like Alloc.
func (ar *Arena) Reserve(n int) error {
	if n < 0 {
		return fmt.Errorf("pdm: negative arena request %d", n)
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.used+n > ar.capacity {
		ar.refused++
		return fmt.Errorf("%w: in use %d + reservation %d > capacity %d",
			ErrMemoryExceeded, ar.used, n, ar.capacity)
	}
	ar.used += n
	if ar.used > ar.peak {
		ar.peak = ar.used
	}
	if ar.phase != "" && ar.used > ar.phases[ar.phase] {
		ar.phases[ar.phase] = ar.used
	}
	return nil
}

// Release returns n keys previously charged by Reserve (or by Alloc, whose
// Free delegates here).
func (ar *Arena) Release(n int) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	ar.used -= n
	if ar.used < 0 {
		// Releasing more than was charged is a caller bug severe enough to
		// surface loudly: it would silently defeat the memory model.
		panic(fmt.Sprintf("pdm: arena underflow: released %d with only %d in use", n, ar.used+n))
	}
}

// SetPhase labels subsequent allocations so that per-phase peaks can be
// reported (e.g. "run formation" vs "cleanup").  An empty name disables
// labeling.
func (ar *Arena) SetPhase(name string) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	ar.phase = name
	if name != "" && ar.phases[name] < ar.used {
		ar.phases[name] = ar.used
	}
}

// InUse returns the number of keys currently allocated.
func (ar *Arena) InUse() int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.used
}

// Peak returns the maximum number of keys ever simultaneously allocated.
func (ar *Arena) Peak() int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.peak
}

// Refused returns how many reservations (Reserve, Alloc, Take) the arena
// has refused.  On an array's arena a run that succeeded refused none
// unless its compute pool's kernel was denied scratch and fell back to the
// introsort, which the capacity formula (Config.ArenaCapacity) is sized
// never to make it do.
func (ar *Arena) Refused() int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.refused
}

// Capacity returns the arena capacity in keys.
func (ar *Arena) Capacity() int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.capacity
}

// ResetPeak zeroes the recorded peaks (global and per phase) without touching
// live allocations, so a harness can meter phases independently.
func (ar *Arena) ResetPeak() {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	ar.peak = ar.used
	ar.phases = make(map[string]int)
}

// PhasePeaks returns the recorded per-phase peaks as "name=peak" lines,
// sorted by name, for reports.
func (ar *Arena) PhasePeaks() []string {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	names := make([]string, 0, len(ar.phases))
	for name := range ar.phases {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%s=%d", name, ar.phases[name])
	}
	return out
}
