package mesh

import (
	"errors"

	"repro/internal/memsort"
)

// ErrDirtyOverflow is reported by cleanup routines when a key was displaced
// farther than the window they were asked to clean — the detection event
// that triggers the paper's fallback path in the expected-pass algorithms.
var ErrDirtyOverflow = errors.New("mesh: displacement exceeded the cleanup window")

// RollingClean sorts a in place under the promise that every key lies within
// w positions of its sorted location (the paper's Observation 4.2 situation:
// |Z_i| = w, sort each Z_i, merge Z1Z2, Z3Z4, …, then Z2Z3, Z4Z5, …).  The
// implementation is the streaming equivalent used by the PDM passes: keep a
// carry of w keys, merge it with the next w-chunk, emit the smaller half.
//
// It verifies the promise the way the paper's algorithms do — the emitted
// stream must be nondecreasing across chunk boundaries — and returns
// ErrDirtyOverflow the moment a violation appears (a is left partially
// processed in that case, as the real algorithms abort to a fallback).
func RollingClean(a []int64, w int) error {
	n := len(a)
	if w <= 0 || n == 0 {
		if n == 0 {
			return nil
		}
		return errors.New("mesh: nonpositive cleanup window")
	}
	if w >= n {
		memsort.Keys(a)
		return nil
	}
	carry := append([]int64(nil), a[:w]...)
	memsort.Keys(carry)
	merged := make([]int64, 2*w)
	out := 0
	first := true
	var lastMax int64
	for pos := w; pos < n; pos += w {
		end := pos + w
		if end > n {
			end = n
		}
		chunk := append([]int64(nil), a[pos:end]...)
		memsort.Keys(chunk)
		m := merged[:len(carry)+len(chunk)]
		memsort.MergeBinary(m, carry, chunk)
		emit := m[:len(m)-w]
		if !first && len(emit) > 0 && emit[0] < lastMax {
			return ErrDirtyOverflow
		}
		if len(emit) > 0 {
			lastMax = emit[len(emit)-1]
			first = false
		}
		copy(a[out:], emit)
		out += len(emit)
		carry = append(carry[:0], m[len(m)-w:]...)
	}
	if !first && carry[0] < lastMax {
		return ErrDirtyOverflow
	}
	copy(a[out:], carry)
	return nil
}
