package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPlanGolden pins the planner's analytic answers on a grid of machine
// shapes: M ∈ {256, 1024, 4096, 65536}, D from 1 up to √M in powers of
// two, and N at every candidate's capacity edges (cap, cap + 1) plus
// M√M + M, M² and M² + 1, one universe-bearing and one payload-bearing
// workload.  Each block records Auto's choice and, for every candidate,
// its feasibility (or reason), padded length, predicted passes, I/O words
// and steps, ExactPasses, DiskEnvelope and Capacity.  The calibrated
// seconds columns are left out, so the file depends on nothing measured.
// A change that moves a planner decision shows as a diff of this file;
// regenerate it with UPDATE_GOLDEN=1 go test ./internal/plan.
func TestPlanGolden(t *testing.T) {
	var b strings.Builder
	for _, mem := range []int{256, 1024, 4096, 65536} {
		sq := isqrt(mem)
		for d := 1; d <= sq; d *= 2 {
			shape := Shape{Mem: mem, B: sq, D: d, Alpha: 1}
			for _, w := range goldenWorkloads(mem) {
				writeGoldenBlock(&b, shape, w)
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "plan.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run UPDATE_GOLDEN=1 go test ./internal/plan to regenerate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plan.golden drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan.golden drifted: %d lines, want %d", len(gl), len(wl))
	}
}

// goldenWorkloads lists the key counts the golden plans on an M-key
// machine: every candidate's capacity and one past it, M√M + M, M² and
// M² + 1, then a universe-bearing and a payload-bearing workload.
func goldenWorkloads(mem int) []Workload {
	sq := isqrt(mem)
	ns := []int{mem*sq + mem, mem * mem, mem*mem + 1}
	for _, alg := range Candidates {
		c := Capacity(mem, 1, alg)
		ns = append(ns, c, c+1)
	}
	slices.Sort(ns)
	ns = slices.Compact(ns)
	ws := make([]Workload, 0, len(ns)+2)
	for _, n := range ns {
		ws = append(ws, Workload{N: n})
	}
	return append(ws,
		Workload{N: 10*mem + 1, Universe: 1 << 20},
		Workload{N: 2 * mem, PayloadWords: 16 * mem})
}

// writeGoldenBlock writes one workload's choice and candidate rows.
func writeGoldenBlock(b *strings.Builder, shape Shape, w Workload) {
	fmt.Fprintf(b, "M=%d D=%d N=%d", shape.Mem, shape.D, w.N)
	if w.Universe > 0 {
		fmt.Fprintf(b, " universe=%d", w.Universe)
	}
	if w.PayloadWords > 0 {
		fmt.Fprintf(b, " payload=%d", w.PayloadWords)
	}
	if alg, err := Choose(shape, w); err != nil {
		fmt.Fprintf(b, ": no choice (%v)\n", err)
	} else {
		fmt.Fprintf(b, ": chose %s\n", string(alg))
	}
	cal := DefaultCalibration(shape)
	for _, alg := range Candidates {
		c := evaluate(shape, w, cal, alg)
		capacity := Capacity(shape.Mem, shape.Alpha, alg)
		if !c.Feasible {
			fmt.Fprintf(b, "  %-9s no  cap=%d: %s\n", string(alg), capacity, c.Reason)
			continue
		}
		exact := "-"
		if r, wr, ok := ExactPasses(shape, w, alg); ok {
			exact = fmt.Sprintf("%v/%v", r, wr)
		}
		fmt.Fprintf(b, "  %-9s yes cap=%d padded=%d passes=%v/%v io=%d steps=%d exact=%s env=%d",
			string(alg), capacity, c.PaddedN, c.ReadPasses, c.WritePasses, c.IOWords, c.Steps, exact,
			DiskEnvelope(shape, w, alg, c.PaddedN))
		if c.PermuteLevels > 0 || c.PermutePasses > 0 {
			fmt.Fprintf(b, " permute=%d/%v", c.PermuteLevels, c.PermutePasses)
		}
		b.WriteString("\n")
	}
}
