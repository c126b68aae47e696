package mesh

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 3, make([]int64, 5)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := New(0, 3, nil); err == nil {
		t.Fatal("zero rows accepted")
	}
	m, err := New(2, 3, []int64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %d, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set failed")
	}
}

func TestSortColumns(t *testing.T) {
	m, _ := New(3, 2, []int64{5, 0, 3, 2, 1, 4})
	m.SortColumns()
	want := []int64{1, 0, 3, 2, 5, 4}
	if !slices.Equal(m.Data, want) {
		t.Fatalf("Data = %v, want %v", m.Data, want)
	}
}

func TestSubmeshPassSnakeDirtyRows(t *testing.T) {
	// Theorem 3.1's combinatorial core: on 0-1 inputs, after Step 1 each
	// band has at most 1 dirty row, and after Step 2 at most √M/2 dirty
	// rows remain.
	const mem = 256 // √M = 16
	cols := 16
	rows := mem
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		data := workload.ZeroOneK(rows*cols, rng.Intn(rows*cols+1), rng.Int63())
		m, err := New(rows, cols, data)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k*cols < rows; k++ {
			m.SortSubmeshRowMajor(k*cols, 0, cols, cols, k%2 == 1)
		}
		for k := 0; k < rows/cols; k++ {
			band := &Mesh{Rows: cols, Cols: cols, Data: m.Data[k*cols*cols : (k+1)*cols*cols]}
			if d := band.DirtyRows(); d > 1 {
				t.Fatalf("trial %d: band %d has %d dirty rows after Step 1", trial, k, d)
			}
		}
		m.SortColumns()
		if d := m.DirtyRows(); d > cols/2 {
			t.Fatalf("trial %d: %d dirty rows after Step 2, want <= %d", trial, d, cols/2)
		}
	}
}

func TestDirtyRows(t *testing.T) {
	m, _ := New(3, 2, []int64{0, 0, 0, 1, 1, 1})
	if got := m.DirtyRows(); got != 1 {
		t.Fatalf("DirtyRows = %d, want 1", got)
	}
	clean, _ := New(2, 2, []int64{0, 0, 1, 1})
	if got := clean.DirtyRows(); got != 0 {
		t.Fatalf("clean DirtyRows = %d", got)
	}
}
