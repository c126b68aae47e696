package experiments

import (
	"errors"

	"repro/internal/memsort"
	"repro/internal/mesh"
	"repro/internal/report"
	"repro/internal/workload"
)

// A1CleanupWindow ablates the rolling-cleanup window (ablation A1): the
// window must cover the displacement bound; half windows fail exactly when
// the dirtiness exceeds them, which is why ThreePass2's chunk is M and why
// the memory envelope is 2M.
func A1CleanupWindow(trials int) (*report.Table, error) {
	t := report.NewTable("A1  Ablation: rolling-cleanup window vs displacement",
		"displacement d", "window", "trials", "successes", "detected overflows")
	for _, tc := range []struct{ d, w int }{
		{64, 64}, {64, 32}, {64, 16}, {128, 128}, {128, 64},
	} {
		succ, det := 0, 0
		for trial := 0; trial < trials; trial++ {
			a := workload.NearlySorted(4096, tc.d, int64(trial*3+tc.d))
			err := mesh.RollingClean(a, tc.w)
			switch {
			case err == nil && memsort.IsSorted(a):
				succ++
			case errors.Is(err, mesh.ErrDirtyOverflow):
				det++
			}
		}
		t.AddRow(tc.d, tc.w, trials, succ, det)
	}
	t.Note = "window >= displacement always succeeds; every failure is detected, never silent — the property the expected-pass algorithms rely on"
	return t, nil
}

// A2SnakeDirection ablates ThreePass1's alternating submesh row direction
// (ablation A2): without alternation the Shearsort pairing argument is
// lost and the post-column-sort dirty band can exceed √M/2 rows.
func A2SnakeDirection(trials int) (*report.Table, error) {
	t := report.NewTable("A2  Ablation: ThreePass1 submesh row alternation (0-1 inputs)",
		"variant", "trials", "max dirty rows", "bound sqrt(M)/2", "within")
	const mem = 1024
	cols := memsort.Isqrt(mem)
	rows := mem
	for _, alternate := range []bool{true, false} {
		worst := 0
		for trial := 0; trial < trials; trial++ {
			data := workload.ZeroOneK(rows*cols, (trial*rows*cols)/trials, int64(trial))
			m, err := mesh.New(rows, cols, data)
			if err != nil {
				return nil, err
			}
			for k := 0; k*cols < rows; k++ {
				m.SortSubmeshRowMajor(k*cols, 0, cols, cols, alternate && k%2 == 1)
			}
			m.SortColumns()
			if d := m.DirtyRows(); d > worst {
				worst = d
			}
		}
		name := "alternating (paper)"
		if !alternate {
			name = "uniform direction"
		}
		t.AddRow(name, trials, worst, cols/2, worst <= cols/2)
	}
	t.Note = "the factor-2 saving is exactly what makes the M/2-key cleanup window sufficient in Theorem 3.1"
	return t, nil
}

// A3IntegerStriping ablates IntegerSort's block placement (ablation A3):
// per-bucket round-robin rotation (the LMM striping) vs every bucket
// starting at disk 0, comparing per-phase write steps analytically.
func A3IntegerStriping() (*report.Table, error) {
	t := report.NewTable("A3  Ablation: IntegerSort bucket-write striping (analytic, one phase)",
		"buckets R", "disks D", "blocks", "rotated steps", "naive steps", "inflation")
	for _, tc := range []struct{ r, d int }{{32, 8}, {64, 8}, {64, 16}} {
		counts := workload.Uniform(tc.r, 1, 2, 99) // 1-2 blocks per bucket
		total := 0
		rotated := make([]int, tc.d)
		naive := make([]int, tc.d)
		for i, c := range counts {
			for blk := 0; blk < int(c); blk++ {
				rotated[(i+blk)%tc.d]++
				naive[blk%tc.d]++ // every bucket starts at disk 0
				total++
			}
		}
		maxOf := func(xs []int) int {
			m := 0
			for _, x := range xs {
				if x > m {
					m = x
				}
			}
			return m
		}
		t.AddRow(tc.r, tc.d, total, maxOf(rotated), maxOf(naive),
			report.Ratio(float64(maxOf(naive)), float64(maxOf(rotated)), 2))
	}
	t.Note = "naive placement serializes the first block of every bucket on disk 0; rotation is the paper's '[23] striping'"
	return t, nil
}

// A5Detection quantifies the failure-detection choice (ablation A5): the
// paper's largest-key tracking is free, while a separate verification pass
// would cost a full extra pass even on success.
func A5Detection() (*report.Table, error) {
	t := report.NewTable("A5  Ablation: failure detection strategy (ExpectedTwoPass)",
		"strategy", "extra passes on success", "extra passes on failure", "failures missed")
	t.AddRow("largest-key tracking (paper)", 0.0, "0 (aborts early)", 0)
	t.AddRow("separate verification pass", 1.0, 1.0, 0)
	t.AddRow("no detection", 0.0, 0.0, "all (unsorted output)")
	t.Note = "tracking the largest shipped key piggybacks on the cleanup's own writes; see core/rollingPass"
	return t, nil
}
