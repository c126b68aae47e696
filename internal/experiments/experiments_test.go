package experiments

import (
	"strings"
	"testing"
)

func TestAllQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	tables, err := All(QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 21 {
		t.Fatalf("got %d tables, want 21 (E01-E16 + A1-A3, A5 + X1)", len(tables))
	}
	for _, tb := range tables {
		if tb.Rows() == 0 {
			t.Fatalf("table %q is empty", tb.Title)
		}
		out := tb.String()
		if !strings.Contains(out, tb.Title) {
			t.Fatalf("table %q renders without its title", tb.Title)
		}
		if strings.Contains(out, "false") && strings.Contains(tb.Title, "Theorem 3.1") {
			t.Fatalf("E02 reports an unsorted run:\n%s", out)
		}
	}
}

func TestE04HoldsExhaustively(t *testing.T) {
	tb, err := E04ZeroOne()
	if err != nil {
		t.Fatalf("Theorem 3.3 check failed: %v\n%s", err, tb)
	}
}

func TestE01Shape(t *testing.T) {
	tb, err := E01LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 7 {
		t.Fatalf("E01 rows = %d", tb.Rows())
	}
}
