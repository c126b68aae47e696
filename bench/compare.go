package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this bench reads %q", path, f.Schema, schemaVersion)
	}
	return &f, nil
}

// worseBy is how much worse cur is than base, as a share of base, in the
// metric's own direction (negative: better).
func worseBy(d metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// compareFiles prints, per workload × end-to-end metric, both medians and
// IQRs and the change against the metric's bound, and checks that every
// exact count agrees.  It exits 1 on a regression or a differing count.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{oldPath, newPath} {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1], stdout)
}

func compareResults(old, cur *resultFile, w io.Writer) int {
	if old.Env.NumCPU != cur.Env.NumCPU || old.Env.ScratchFS != cur.Env.ScratchFS {
		fmt.Fprintf(w, "warning: environments differ (nproc %d vs %d, scratch %s vs %s): times are not comparable\n",
			old.Env.NumCPU, cur.Env.NumCPU, old.Env.ScratchFS, cur.Env.ScratchFS)
	}
	regressions, mismatches := 0, 0
	fmt.Fprintf(w, "%-14s %-20s %14s %12s %14s %12s %9s %7s  %s\n",
		"workload", "metric", "old median", "old iqr", "new median", "new iqr", "worse by", "bound", "verdict")
	for _, wd := range workloadDefs {
		for _, d := range endToEnd {
			a, b := across(old.Runs, wd.Name, d.Name), across(cur.Runs, wd.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sa, sb := summarize(a), summarize(b)
			delta := worseBy(d, sa.Value, sb.Value)
			verdict := "ok"
			switch {
			case d.Exact && sa.Value != sb.Value:
				verdict = "MISMATCH"
				mismatches++
			case sa.Value != 0 && (sa.Q3-sa.Q1)/sa.Value > d.Bound:
				// The parent's own runs spread wider than the bound: the
				// pair cannot be told apart at this resolution.
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %12.4g %14.6g %12.4g %+8.2f%% %6.0f%%  %s\n",
				wd.Name, d.Name, sa.Value, sa.Q3-sa.Q1, sb.Value, sb.Q3-sb.Q1, 100*delta, 100*d.Bound, verdict)
		}
		// Exact per-layer counts: every run of both files must agree.
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			xs := append(across(old.Runs, wd.Name, d.Name), across(cur.Runs, wd.Name, d.Name)...)
			for _, x := range xs {
				if x != xs[0] {
					fmt.Fprintf(w, "%-14s %-20s exact count differs: %v\n", wd.Name, d.Name, xs)
					mismatches++
					break
				}
			}
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d exact-count mismatch(es)\n", regressions, mismatches)
	if regressions+mismatches > 0 {
		return 1
	}
	return 0
}
