package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// E06ShuffleLemma measures Lemma 4.2: the maximum displacement after
// partition-sort-shuffle stays below the analytic bound for random inputs.
func E06ShuffleLemma(trials int) (*report.Table, error) {
	t := report.NewTable("E06  Lemma 4.2: shuffling lemma displacement bound (alpha = 1)",
		"n", "parts m", "part len q", "max displacement (measured)", "bound", "within")
	for _, tc := range []struct{ n, m int }{
		{1 << 12, 4}, {1 << 12, 16}, {1 << 14, 8}, {1 << 14, 32}, {1 << 16, 16}, {1 << 16, 64},
	} {
		q := tc.n / tc.m
		bound := shuffle.DisplacementBound(tc.n, q, 1)
		worst := 0
		for trial := 0; trial < trials; trial++ {
			x := workload.Perm(tc.n, int64(trial*7+tc.m))
			z, err := shuffle.PartitionSortShuffle(x, tc.m)
			if err != nil {
				return nil, err
			}
			if d := shuffle.MaxDisplacement(z); d > worst {
				worst = d
			}
		}
		t.AddRow(tc.n, tc.m, q, worst, report.Fixed(bound, 1), float64(worst) <= bound)
	}
	t.Note = "paper claim: displacement <= (n/sqrt(q))*sqrt((alpha+2)ln n + 1) + n/q w.p. >= 1 - n^-alpha"
	return t, nil
}

// E07ExpectedTwoPass measures Theorem 5.1: expected two passes at the
// theorem's capacity, with the failure fraction across run counts.
func E07ExpectedTwoPass(mems []int, trials int) (*report.Table, error) {
	t := report.NewTable("E07  Theorem 5.1: ExpectedTwoPass",
		"M", "N/M", "window ok", "trials", "fallbacks", "mean passes", "all sorted")
	for _, m := range mems {
		a, err := newArray(m)
		if err != nil {
			return nil, err
		}
		sq := memsort.Isqrt(m)
		window := plan.Capacity(m, 1, plan.Exp2) / m
		for _, n1 := range []int{2, 4, 8, 16, 32} {
			if n1 > sq || sq%n1 != 0 {
				continue
			}
			n := n1 * m
			fellBack := 0
			sum := 0.0
			allSorted := true
			for trial := 0; trial < trials; trial++ {
				data := workload.Perm(n, int64(trial*977+n1))
				in, err := load(a, data)
				if err != nil {
					return nil, err
				}
				res, err := core.ExpectedTwoPass(a, in)
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
			t.AddRow(m, n1, n1 <= window, trials, fellBack,
				report.Fixed(sum/float64(trials), 3), allSorted)
		}
	}
	t.Note = "paper capacity: N = M*sqrt(M)/((alpha+2)ln M + 2); 'window ok' marks run counts inside the Lemma 4.2 window"
	return t, nil
}

// E09ExpectedThreePass measures Theorem 6.1 at several long-run counts.
func E09ExpectedThreePass(m, trials int) (*report.Table, error) {
	t := report.NewTable("E09  Theorem 6.1: ExpectedThreePass (~M^1.75 keys in 3 passes w.h.p.)",
		"M", "N", "N/M^1.75", "trials", "fallbacks", "mean passes", "all sorted")
	a, err := newArray(m)
	if err != nil {
		return nil, err
	}
	sq := memsort.Isqrt(m)
	for _, l := range []int{2, 4, 8} {
		if l > sq || sq%l != 0 {
			continue
		}
		n := l * l * m
		fellBack := 0
		sum := 0.0
		allSorted := true
		for trial := 0; trial < trials; trial++ {
			data := workload.Perm(n, int64(trial*31+l))
			in, err := load(a, data)
			if err != nil {
				return nil, err
			}
			res, err := core.ExpectedThreePass(a, in)
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
		ratio := float64(n) / mPow(m, 1.75)
		t.AddRow(m, n, report.Fixed(ratio, 4), trials, fellBack,
			report.Fixed(sum/float64(trials), 3), allSorted)
	}
	t.Note = "paper capacity: M^1.75/((alpha+2)ln M+2)^(3/4); geometry restricted to N = l^2*M with l | sqrt(M)"
	return t, nil
}

// E10SevenPass measures Theorem 6.2: M² keys in exactly seven passes.
func E10SevenPass(mems []int) (*report.Table, error) {
	t := report.NewTable("E10  Theorem 6.2: SevenPass sorts M^2 keys in 7 passes",
		"M", "N = M^2", "read passes", "write passes", "sorted", "read eff")
	for _, m := range mems {
		a, err := newArray(m)
		if err != nil {
			return nil, err
		}
		n := m * m
		data := workload.Perm(n, 17)
		in, err := load(a, data)
		if err != nil {
			return nil, err
		}
		res, err := core.SevenPass(a, in)
		if err != nil {
			return nil, err
		}
		t.AddRow(m, n, report.Fixed(res.ReadPasses, 3), report.Fixed(res.WritePasses, 3),
			sortedOK(res, data), report.Fixed(res.IO.ReadEfficiency(a.D()), 2))
		res.Out.Free()

		// The Remark 6.2 mesh-based variant: same pass structure.
		in2, err := load(a, data)
		if err != nil {
			return nil, err
		}
		res2, err := core.SevenPassMesh(a, in2)
		if err != nil {
			return nil, err
		}
		t.AddRow(m, report.Cell(n)+" (mesh)", report.Fixed(res2.ReadPasses, 3),
			report.Fixed(res2.WritePasses, 3), sortedOK(res2, data),
			report.Fixed(res2.IO.ReadEfficiency(a.D()), 2))
		res2.Out.Free()
		in2.Free()
		in.Free()
	}
	t.Note = "paper claim: exactly 7 passes at B = sqrt(M); '(mesh)' rows are the Remark 6.2 variant (mesh superruns)"
	return t, nil
}

// E11ExpectedSixPass measures Theorem 6.3 across superrun scales: six
// passes while the per-segment ExpectedTwoPass window holds, falling back
// per segment beyond it.
func E11ExpectedSixPass(m, trials int) (*report.Table, error) {
	t := report.NewTable("E11  Theorem 6.3: ExpectedSixPass (~M^2/sqrt(log) keys in 6 passes w.h.p.)",
		"M", "N", "seg window ok", "trials", "fallbacks", "mean passes", "all sorted")
	// D = 4 (C = √M/4): the reliable superrun counts at simulator scale are
	// small, and exact pass counts need l ≥ D (full disk occupancy).
	b := memsort.Isqrt(m)
	a, err := pdm.New(pdm.Config{D: 4, B: b, Mem: m})
	if err != nil {
		return nil, err
	}
	sq := memsort.Isqrt(m)
	window := plan.Capacity(m, 1, plan.Exp2) / m
	for _, l := range []int{4, 8, 16} {
		// l ≥ D for full disk occupancy (exact pass counts), l | √M.
		if l < a.D() || l > sq || sq%l != 0 {
			continue
		}
		n := l * l * m
		fellBack := 0
		sum := 0.0
		allSorted := true
		for trial := 0; trial < trials; trial++ {
			data := workload.Perm(n, int64(trial*53+l))
			in, err := load(a, data)
			if err != nil {
				return nil, err
			}
			res, err := core.ExpectedSixPass(a, in)
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
		t.AddRow(m, n, l <= window, trials, fellBack,
			report.Fixed(sum/float64(trials), 3), allSorted)
	}
	t.Note = "fallback re-sorts only the offending segment (+3 passes over it); paper's alternate for full failure is SevenPass"
	return t, nil
}

// mPow computes m^p for capacity ratios.
func mPow(m int, p float64) float64 {
	return math.Pow(float64(m), p)
}
