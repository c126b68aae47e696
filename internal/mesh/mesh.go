package mesh

import (
	"fmt"

	"repro/internal/memsort"
)

// Mesh is an r×c matrix of keys in row-major order.
type Mesh struct {
	Rows, Cols int
	Data       []int64
}

// New wraps data (len rows·cols, row-major) as a Mesh without copying.
func New(rows, cols int, data []int64) (*Mesh, error) {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("mesh: %d keys cannot form a %d x %d mesh", len(data), rows, cols)
	}
	return &Mesh{Rows: rows, Cols: cols, Data: data}, nil
}

// At returns the element at row r, column c.
func (m *Mesh) At(r, c int) int64 { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Mesh) Set(r, c int, v int64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice view into the mesh.
func (m *Mesh) Row(r int) []int64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// SortColumns sorts every column top-to-bottom ascending.
func (m *Mesh) SortColumns() {
	col := make([]int64, m.Rows)
	for c := 0; c < m.Cols; c++ {
		for r := 0; r < m.Rows; r++ {
			col[r] = m.At(r, c)
		}
		memsort.Keys(col)
		for r := 0; r < m.Rows; r++ {
			m.Set(r, c, col[r])
		}
	}
}

// SortSubmeshRowMajor sorts the sr×sc submesh whose top-left corner is
// (r0, c0) into row-major order; if reversedRows is set, each row runs
// right-to-left (the "reverse direction" of the paper's Step 1).
func (m *Mesh) SortSubmeshRowMajor(r0, c0, sr, sc int, reversedRows bool) {
	buf := make([]int64, sr*sc)
	k := 0
	for r := r0; r < r0+sr; r++ {
		copy(buf[k:], m.Data[r*m.Cols+c0:r*m.Cols+c0+sc])
		k += sc
	}
	memsort.Keys(buf)
	k = 0
	for r := r0; r < r0+sr; r++ {
		row := m.Data[r*m.Cols+c0 : r*m.Cols+c0+sc]
		copy(row, buf[k:k+sc])
		if reversedRows {
			memsort.Reverse(row)
		}
		k += sc
	}
}

// DirtyRows counts rows containing a mixture of distinct values.  On 0-1
// inputs this is the paper's dirty-row count.
func (m *Mesh) DirtyRows() int {
	dirty := 0
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for _, v := range row[1:] {
			if v != row[0] {
				dirty++
				break
			}
		}
	}
	return dirty
}
