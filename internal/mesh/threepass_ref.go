package mesh

import (
	"fmt"

	"repro/internal/memsort"
)

// ThreePassRef is the in-memory reference form of the paper's Algorithm
// ThreePass1 (Section 3.1): view the input as an M×√M mesh, (1) sort the
// √M×√M submeshes row-major with alternating row directions, (2) sort all
// columns, (3) rolling cleanup with window M/2.  It sorts any input of
// exactly M·√M keys (Theorem 3.1).
//
// internal/core implements the same steps as three accounted PDM passes.
// This form is checked on its own, against a plain in-memory sort and
// exhaustive 0-1 inputs; no test compares it with internal/core.
func ThreePassRef(data []int64, mem int) error {
	cols := memsort.Isqrt(mem)
	if cols*cols != mem {
		return fmt.Errorf("mesh: M = %d is not a perfect square", mem)
	}
	if len(data) != mem*cols {
		return fmt.Errorf("mesh: ThreePassRef needs exactly M·√M = %d keys, got %d", mem*cols, len(data))
	}
	m, err := New(mem, cols, data)
	if err != nil {
		return err
	}
	if err := m.SubmeshPassSnake(cols); err != nil {
		return err
	}
	m.SortColumns()
	// After steps 1–2 at most √M/2 rows are dirty (Shearsort principle), a
	// contiguous band of at most M/2 keys in row-major order, so a cleanup
	// window of M/2 suffices for all inputs.
	return RollingClean(data, mem/2)
}

// ExpTwoPassRef is the in-memory reference form of the Section 3.2 variant
// ExpThreePass1/ExpectedTwoPass-mesh: Step 1 is skipped, so only the column
// sort and the cleanup remain (two passes on the PDM).  Without Step 1 the
// dirty band is only *probably* small — O(√(M log M)) rows for random inputs
// (balls-in-bins, Theorem 3.2) — so the cleanup can overflow its window, in
// which case ErrDirtyOverflow is returned and the caller must fall back to a
// worst-case algorithm, exactly as the paper prescribes.
func ExpTwoPassRef(data []int64, mem int) error {
	cols := memsort.Isqrt(mem)
	if cols*cols != mem {
		return fmt.Errorf("mesh: M = %d is not a perfect square", mem)
	}
	if len(data)%cols != 0 {
		return fmt.Errorf("mesh: %d keys do not form columns of width %d", len(data), cols)
	}
	rows := len(data) / cols
	if rows > mem {
		return fmt.Errorf("mesh: column height %d exceeds memory %d", rows, mem)
	}
	m, err := New(rows, cols, data)
	if err != nil {
		return err
	}
	m.SortColumns()
	return RollingClean(data, mem/2)
}
