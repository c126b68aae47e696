package pdm

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Arena meters the internal memory used by an algorithm.  Every in-core
// buffer a PDM algorithm holds — its loads, the streaming rings and
// stages, the sort kernel's scratch — is obtained from the array's arena
// with Alloc and handed back with Free, so the peak usage recorded here is
// the algorithm's true internal-memory footprint in keys, checked against
// the model's M (times the configured slack) in tests.  Free keeps the
// buffer for a later Alloc, so a warm array allocates nothing through its
// arena.
//
// Alloc hands out the smallest kept buffer that holds the request and
// makes one only when none does, first dropping kept buffers (the smallest
// whose loss alone makes room, else the largest, until they fit) so that
// the kept capacities and the keys in use stay within the capacity.  The
// bound is checked when a buffer is made, not when one is freed, so a run
// keeps what its busiest moment held, and that serves every moment of the
// next run (ARCHITECTURE.md, "Scratch from the arena").
type Arena struct {
	mu       sync.Mutex
	capacity int
	used     int
	peak     int
	refused  int
	phases   map[string]int
	phase    string
	kept     [][]int64 // buffers Free keeps for Alloc
	keptKeys int       // their summed capacities
	made     int       // keys Alloc allocated because nothing kept fit
}

// NewArena returns an arena with the given capacity in keys.
func NewArena(capacity int) *Arena {
	return &Arena{capacity: capacity, phases: make(map[string]int)}
}

// Alloc reserves and returns a zeroed buffer of n keys, or
// ErrMemoryExceeded if the reservation would exceed the arena capacity.
// The buffer is the smallest one Free kept whose capacity holds n keys,
// resliced to n and cleared; only when none does is one allocated.
func (ar *Arena) Alloc(n int) ([]int64, error) {
	if err := ar.Reserve(n); err != nil {
		return nil, err
	}
	if buf := ar.reuse(n); buf != nil {
		clear(buf)
		return buf, nil
	}
	return make([]int64, n), nil
}

// reuse unkeeps and returns the smallest kept buffer that holds n keys,
// resliced to n, or nil, having made room for and counted the n keys Alloc
// will make.  The n keys are already reserved.
func (ar *Arena) reuse(n int) []int64 {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if i := ar.smallest(n); i >= 0 && n > 0 {
		buf := ar.kept[i]
		ar.unkeep(i)
		return buf[:n]
	}
	for len(ar.kept) > 0 && ar.keptKeys+ar.used > ar.capacity {
		i := ar.smallest(ar.keptKeys + ar.used - ar.capacity)
		if i < 0 {
			i = ar.largest()
		}
		ar.unkeep(i)
	}
	ar.made += n
	return nil
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

// Free releases the len(buf) keys of a buffer Alloc returned and keeps the
// buffer for a later Alloc, so the caller must not touch it again.
func (ar *Arena) Free(buf []int64) {
	ar.Release(len(buf))
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if cap(buf) == 0 {
		return
	}
	ar.kept = append(ar.kept, buf)
	ar.keptKeys += cap(buf)
}

// smallest returns the index of the smallest kept buffer whose capacity is
// at least n keys, or -1 if none is.  ar.mu must be held.
func (ar *Arena) smallest(n int) int {
	best := -1
	for i, buf := range ar.kept {
		if cap(buf) >= n && (best < 0 || cap(buf) < cap(ar.kept[best])) {
			best = i
		}
	}
	return best
}

// largest returns the index of the largest kept buffer.  ar.mu must be
// held and a buffer kept.
func (ar *Arena) largest() int {
	best := 0
	for i, buf := range ar.kept {
		if cap(buf) > cap(ar.kept[best]) {
			best = i
		}
	}
	return best
}

// unkeep removes kept buffer i.  ar.mu must be held.
func (ar *Arena) unkeep(i int) {
	ar.keptKeys -= cap(ar.kept[i])
	ar.kept = slices.Delete(ar.kept, i, i+1)
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

// Release returns n keys previously charged by Reserve.
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

// Refused returns how many reservations (Reserve, Alloc) the arena
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
