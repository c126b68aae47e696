package experiments

import "repro/internal/report"

// Scale selects the experiment sizes: Quick keeps cmd/experiments and the
// benchmark suite snappy; Full is what go run ./cmd/experiments prints.
type Scale struct {
	MemSmall int // M for sweep-style experiments
	MemLarge int // M for the headline single runs
	Trials   int // trials per probabilistic configuration
}

// QuickScale runs in a few seconds.
var QuickScale = Scale{MemSmall: 256, MemLarge: 1024, Trials: 5}

// FullScale is the default of go run ./cmd/experiments.
var FullScale = Scale{MemSmall: 1024, MemLarge: 4096, Trials: 20}

// All runs every experiment and ablation at the given scale, in index
// order.  Errors abort (each table is independently re-runnable through its
// function).
func All(sc Scale) ([]*report.Table, error) {
	type gen func() (*report.Table, error)
	gens := []gen{
		func() (*report.Table, error) { return E01LowerBound() },
		func() (*report.Table, error) { return E02ThreePass1([]int{sc.MemSmall, sc.MemLarge}) },
		func() (*report.Table, error) { return E03ExpTwoPassMesh(sc.MemLarge, sc.Trials) },
		func() (*report.Table, error) { return E04ZeroOne() },
		func() (*report.Table, error) { return E05ThreePass2([]int{sc.MemSmall, sc.MemLarge}) },
		func() (*report.Table, error) { return E06ShuffleLemma(sc.Trials) },
		func() (*report.Table, error) { return E07ExpectedTwoPass([]int{sc.MemSmall, sc.MemLarge}, sc.Trials) },
		func() (*report.Table, error) { return E08ModColumnsort(sc.MemLarge, sc.Trials) },
		func() (*report.Table, error) { return E09ExpectedThreePass(sc.MemSmall, sc.Trials) },
		func() (*report.Table, error) { return E10SevenPass([]int{sc.MemSmall, sc.MemLarge}) },
		func() (*report.Table, error) { return E11ExpectedSixPass(sc.MemSmall, sc.Trials) },
		func() (*report.Table, error) { return E12IntegerSort(sc.MemLarge, sc.Trials) },
		func() (*report.Table, error) { return E13RadixSort(sc.MemSmall) },
		func() (*report.Table, error) { return E14Subblock(sc.MemLarge) },
		func() (*report.Table, error) { return E15Summary(sc.MemLarge) },
		func() (*report.Table, error) { return E16Multiway(sc.MemSmall) },
		func() (*report.Table, error) { return A1CleanupWindow(sc.Trials) },
		func() (*report.Table, error) { return A2SnakeDirection(sc.Trials) },
		func() (*report.Table, error) { return A3IntegerStriping() },
		func() (*report.Table, error) { return A4MergeKernel() },
		func() (*report.Table, error) { return A5Detection() },
		func() (*report.Table, error) { return X1CostModel(sc.MemLarge) },
	}
	tables := make([]*report.Table, 0, len(gens))
	for _, g := range gens {
		tb, err := g()
		if err != nil {
			return tables, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}
