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

// X1CostModel grounds the paper's motivating sentence — "a saving of even
// one pass could make a big difference if the input size is large" — in a
// simulated time model: each parallel I/O step costs seek + B·transfer.
// At the ExpectedTwoPass capacity, the two-pass algorithm's simulated time
// is ~2/3 of the three-pass algorithms', and the non-oblivious multiway
// baseline pays extra for its unbalanced steps.
func X1CostModel(m int) (*report.Table, error) {
	t := report.NewTable("X1  Extension: simulated time (seek=5ms, transfer=20us/key per step)",
		"algorithm", "passes (read)", "sim time (s)", "vs ThreePass2")
	b := memsort.Isqrt(m)
	cfg := pdm.Config{D: b / 4, B: b, Mem: m}
	const seek, transfer = 5e-3, 2e-5 // seconds per step, per key
	step := seek + float64(b)*transfer
	n := plan.Capacity(m, 1, plan.Exp2)
	data := workload.Perm(n, 21)

	entries := []struct {
		name string
		run  func(a *pdm.Array, in *pdm.Stripe) (*core.Result, error)
	}{
		{"ExpectedTwoPass", core.ExpectedTwoPass},
		{"ThreePass1 (mesh)", core.ThreePass1},
		{"ThreePass2 (LMM)", core.ThreePass2},
		{"multiway merge", baseline.MultiwayMergeSort},
	}
	type row struct {
		name   string
		passes float64
		time   float64
	}
	rows := make([]row, 0, len(entries))
	var ref float64
	for _, e := range entries {
		a, err := pdm.New(cfg)
		if err != nil {
			return nil, err
		}
		in, err := load(a, data)
		if err != nil {
			return nil, err
		}
		res, err := e.run(a, in)
		if err != nil {
			return nil, err
		}
		if !sortedOK(res, data) {
			return nil, errUnsorted(e.name)
		}
		simTime := float64(res.IO.ReadSteps+res.IO.WriteSteps) * step
		if e.name == "ThreePass2 (LMM)" {
			ref = simTime
		}
		rows = append(rows, row{e.name, res.ReadPasses, simTime})
		res.Out.Free()
		in.Free()
	}
	for _, r := range rows {
		t.AddRow(r.name, report.Fixed(r.passes, 3), report.Fixed(r.time, 3),
			report.Ratio(r.time, ref, 2))
	}
	t.Note = "time per parallel step = seek + B*transfer; oblivious algorithms convert passes to time 1:1, the demand-read baseline pays extra for unbalanced steps"
	return t, nil
}

type errString string

func (e errString) Error() string { return string(e) }

func errUnsorted(name string) error {
	return errString("experiments: " + name + " produced unsorted output")
}
