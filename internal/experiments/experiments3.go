package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/workload"
)

// E08ModColumnsort measures Observation 5.1: the two-pass probabilistic
// columnsort, with its ~4x smaller reliable capacity than ExpectedTwoPass.
func E08ModColumnsort(m, trials int) (*report.Table, error) {
	t := report.NewTable("E08  Obs 5.1: modified columnsort (skip steps 1-2), 2 passes w.h.p.",
		"M", "r x s", "N", "trials", "fallbacks", "mean passes", "all sorted")
	bc := 1
	for bc*bc*bc < m {
		bc *= 2
	}
	dc := 8
	for bc%dc != 0 && dc > 1 {
		dc /= 2
	}
	a, err := pdm.New(pdm.Config{D: dc, B: bc, Mem: m})
	if err != nil {
		return nil, err
	}
	for _, s := range []int{4, 8, 16, 32} {
		r := m
		// The fallback (full columnsort) must stay feasible: r >= 2(s-1)^2.
		if r%(s*bc) != 0 || r < 2*(s-1)*(s-1) {
			continue
		}
		n := r * s
		fellBack := 0
		sum := 0.0
		allSorted := true
		for trial := 0; trial < trials; trial++ {
			data := workload.Perm(n, int64(trial*13+s))
			in, err := load(a, data)
			if err != nil {
				return nil, err
			}
			res, err := baseline.ModifiedColumnsort(a, in, r, s)
			if err != nil {
				return nil, err
			}
			if res.FellBack {
				fellBack++
			}
			sum += res.ReadPasses
			allSorted = allSorted && sortedOK(res, data)
			res.Out.Free()
			in.Free()
		}
		t.AddRow(m, report.Cell(r)+"x"+report.Cell(s), n, trials, fellBack,
			report.Fixed(sum/float64(trials), 3), allSorted)
	}
	t.Note = "paper capacity: M*sqrt(M)/(4(alpha+2)ln M + 2) — about 4x fewer keys than ExpectedTwoPass (E07)"
	return t, nil
}

// E12IntegerSort measures Theorem 7.1: (1+µ) passes without step A,
// 2(1+µ) with, µ < 1, plus the behaviour under bucket skew.
func E12IntegerSort(m, trials int) (*report.Table, error) {
	t := report.NewTable("E12  Theorem 7.1: IntegerSort, R = M/B buckets",
		"M", "N/M", "input", "step A", "read passes", "write passes", "mu (write)", "sorted")
	a, err := newArray(m)
	if err != nil {
		return nil, err
	}
	r := m / memsort.Isqrt(m)
	for _, nM := range []int{16, 64} {
		n := nM * m
		for _, tc := range []struct {
			name string
			data []int64
		}{
			{"uniform", workload.Uniform(n, 0, int64(r-1), 3)},
			{"zipf", workload.Zipf(n, 1.3, uint64(r-1), 4)},
		} {
			for _, rearrange := range []bool{false, true} {
				in, err := load(a, tc.data)
				if err != nil {
					return nil, err
				}
				res, err := core.IntegerSort(a, in, r, rearrange)
				if err != nil {
					return nil, err
				}
				scatterPasses := res.WritePasses
				if rearrange {
					scatterPasses /= 2
				}
				sorted := "n/a"
				if rearrange {
					sorted = report.Cell(sortedOK(res, tc.data))
					res.Out.Free()
				}
				t.AddRow(m, nM, tc.name, rearrange,
					report.Fixed(res.ReadPasses, 3), report.Fixed(res.WritePasses, 3),
					report.Fixed(scatterPasses-1, 3), sorted)
				in.Free()
			}
		}
	}
	t.Note = "paper claim: (1+mu) passes without step A and 2(1+mu) with, mu < 1, for B = Omega(log N)"
	_ = trials
	return t, nil
}

// E13RadixSort measures Theorem 7.2 and Observation 7.2: pass counts across
// N, including the N = M², C = 4 example the paper bounds by 3.6 passes.
func E13RadixSort(m int) (*report.Table, error) {
	t := report.NewTable("E13  Theorem 7.2 / Obs 7.2: RadixSort passes",
		"M", "N/M", "universe", "read passes", "write passes", "predicted (nu=1/C)", "sorted")
	a, err := newArray(m)
	if err != nil {
		return nil, err
	}
	b := memsort.Isqrt(m)
	for _, nM := range []int{8, 64, 512, m} {
		if nM > m {
			continue
		}
		n := nM * m
		universe := int64(1) << 30
		data := workload.Uniform(n, 0, universe-1, int64(nM))
		in, err := load(a, data)
		if err != nil {
			return nil, err
		}
		res, err := core.RadixSort(a, in, universe)
		if err != nil {
			return nil, err
		}
		pred := core.RadixSortPredictedPasses(n, m, b, a.D())
		t.AddRow(m, nM, universe, report.Fixed(res.ReadPasses, 3),
			report.Fixed(res.WritePasses, 3), report.Fixed(pred, 2), sortedOK(res, data))
		res.Out.Free()
		in.Free()
	}
	t.Note = "Obs 7.2: N = M^2, B = sqrt(M), C = 4 => no more than 3.6 passes (asymptotic constants)"
	return t, nil
}

// E14Subblock measures Observation 6.1: subblock columnsort capacity and
// pass count on this simulator.
func E14Subblock(m int) (*report.Table, error) {
	t := report.NewTable("E14  Obs 6.1: subblock columnsort (Chaudhry-Cormen-Hamon)",
		"M", "r x s", "N", "M^(5/3)/4^(2/3)", "read passes", "write passes", "sorted")
	r, s, b, err := baseline.SubblockGeometry(m)
	if err != nil {
		return nil, err
	}
	d := 8
	for (r/b)%d != 0 && d > 1 {
		d /= 2
	}
	a, err := pdm.New(pdm.Config{D: d, B: b, Mem: m})
	if err != nil {
		return nil, err
	}
	n := r * s
	data := workload.Perm(n, 11)
	in, err := load(a, data)
	if err != nil {
		return nil, err
	}
	res, err := baseline.SubblockColumnsort(a, in, r, s)
	if err != nil {
		return nil, err
	}
	theory := mPow(m, 5.0/3.0) / mPow(4, 2.0/3.0)
	t.AddRow(m, report.Cell(r)+"x"+report.Cell(s), n, report.Fixed(theory, 0),
		report.Fixed(res.ReadPasses, 3), report.Fixed(res.WritePasses, 3), sortedOK(res, data))
	res.Out.Free()
	in.Free()
	t.Note = "paper: 4 passes at B = Theta(M^2/5); this simulator's block model needs 5 (see baseline.SubblockColumnsort); capacity matches up to power-of-4 rounding"
	return t, nil
}

// E16Multiway measures the Section 1 context claim: classical multiway
// merge sort takes more passes than the paper's algorithms at these sizes.
func E16Multiway(m int) (*report.Table, error) {
	t := report.NewTable("E16  Context: multiway merge sort passes vs the paper's algorithms",
		"M", "N/M", "multiway predicted", "multiway measured (read)", "paper algorithm", "paper passes")
	a, err := newArray(m)
	if err != nil {
		return nil, err
	}
	sq := memsort.Isqrt(m)
	for _, tc := range []struct {
		nM    int
		alg   string
		paper float64
	}{
		{4, "ExpectedTwoPass", 2},
		{sq, "ThreePass2", 3},
		{sq * sq, "SevenPass", 7},
	} {
		n := tc.nM * m
		data := workload.Perm(n, int64(tc.nM))
		in, err := load(a, data)
		if err != nil {
			return nil, err
		}
		res, err := baseline.MultiwayMergeSort(a, in)
		if err != nil {
			return nil, err
		}
		if !sortedOK(res, data) {
			t.Note = "MULTIWAY OUTPUT UNSORTED"
		}
		pred := baseline.MultiwayPredictedPasses(n, m, memsort.Isqrt(m))
		t.AddRow(m, tc.nM, report.Fixed(pred, 0), report.Fixed(res.ReadPasses, 3),
			tc.alg, report.Fixed(tc.paper, 0))
		res.Out.Free()
		in.Free()
	}
	t.Note = "multiway fan-in M/(2B) = sqrt(M)/2; demand reads also lose some parallel efficiency (no forecasting)"
	return t, nil
}

// E15Summary assembles the Conclusions comparison: every algorithm's block
// size, capacity and passes at one machine size.
func E15Summary(m int) (*report.Table, error) {
	t := report.NewTable("E15  Summary (paper Conclusions): capacity and passes at one machine",
		"algorithm", "B", "capacity (keys)", "passes", "kind")
	sq := memsort.Isqrt(m)
	n15 := m * sq
	w := plan.Capacity(m, 1, plan.Exp2) / m
	rc, sc, err := baseline.ColumnsortGeometry(m, cubeRootPow2(m))
	if err != nil {
		return nil, err
	}
	rs, ss, _, err := baseline.SubblockGeometry(m)
	if err != nil {
		return nil, err
	}
	lb15 := core.LowerBoundPasses(n15, m, sq)
	lb20 := core.LowerBoundPasses(m*m, m, sq)
	t.AddRow("lower bound (Lemma 2.1)", sq, n15, report.Fixed(lb15, 2), "bound")
	t.AddRow("lower bound (Lemma 2.1)", sq, m*m, report.Fixed(lb20, 2), "bound")
	t.AddRow("ThreePass1 (mesh)", sq, n15, 3, "deterministic")
	t.AddRow("ThreePass2 (LMM)", sq, n15, 3, "deterministic")
	t.AddRow("ExpectedTwoPass", sq, w*m, 2, "expected")
	t.AddRow("ExpectedThreePass", sq, core.ExpectedThreePassCapacity(m, 1), 3, "expected")
	t.AddRow("SevenPass", sq, m*m, 7, "deterministic")
	t.AddRow("SevenPassMesh (Remark 6.2)", sq, m*m, 7, "deterministic")
	t.AddRow("ExpectedSixPass", sq, core.ExpectedSixPassCapacity(m, 1), 6, "expected")
	t.AddRow("CC columnsort [7]", cubeRootPow2(m), rc*sc, 3, "baseline")
	t.AddRow("subblock columnsort [8]", memsort.Isqrt(ss), rs*ss, "4 (5 here)", "baseline")
	t.AddRow("multiway merge", sq, m*m, report.Fixed(baseline.MultiwayPredictedPasses(m*m, m, sq), 0), "baseline")
	t.AddRow("IntegerSort (+step A)", sq, m*m, "2(1+mu)", "randomized")
	t.AddRow("RadixSort", sq, m*m, report.Fixed(core.RadixSortPredictedPasses(m*m, m, sq, sq/4), 1), "randomized")
	t.Note = "capacities at alpha = 1; expected capacities are the reliable regimes, the paper's headline formulas"
	return t, nil
}

func cubeRootPow2(m int) int {
	b := 1
	for b*b*b < m {
		b *= 2
	}
	return b
}
