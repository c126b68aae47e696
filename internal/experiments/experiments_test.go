package experiments

import (
	"fmt"
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
		if strings.HasPrefix(tb.Title, "A1 ") {
			checkA1(t, out)
		}
	}
}

// checkA1 asserts ablation A1's claim on its rendered rows (displacement,
// window, trials, successes, detected overflows): every trial either sorts
// or is detected, every trial sorts where the window covers the
// displacement, and every row past d = 2w detects at least one overflow.
func checkA1(t *testing.T, out string) {
	t.Helper()
	_, body, _ := strings.Cut(out, "-\n")
	body, _, _ = strings.Cut(body, "note:")
	rows := strings.Split(strings.TrimSpace(body), "\n")
	if len(rows) == 0 || rows[0] == "" {
		t.Fatalf("A1 has no rows:\n%s", out)
	}
	for _, line := range rows {
		var d, w, trials, succ, det int
		if _, err := fmt.Sscan(line, &d, &w, &trials, &succ, &det); err != nil {
			t.Fatalf("A1 row %q does not parse: %v", line, err)
		}
		if succ+det != trials {
			t.Errorf("A1 d=%d w=%d: %d successes + %d detected != %d trials: a failure went undetected", d, w, succ, det, trials)
		}
		if w >= d && succ != trials {
			t.Errorf("A1 d=%d w=%d: %d of %d trials sorted with the window covering the displacement", d, w, succ, trials)
		}
		if d > 2*w && det == 0 {
			t.Errorf("A1 d=%d w=%d: no overflow detected past twice the window", d, w)
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
