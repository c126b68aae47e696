// Command experiments regenerates every experiment table: the empirical
// verification of each theorem, lemma and observation of Rajasekaran &
// Sen's "PDM Sorting Algorithms That Take A Small Number Of Passes" (IPPS
// 2005), plus the design-choice ablations A1–A5 (internal/experiments).
//
// Usage:
//
//	experiments [-quick] [-only E07]
//
// -quick runs the reduced scale (seconds instead of minutes); -only filters
// tables whose title contains the given substring.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced-scale suite")
	only := flag.String("only", "", "only print tables whose title contains this substring")
	flag.Parse()

	scale := experiments.FullScale
	if *quick {
		scale = experiments.QuickScale
	}
	start := time.Now()
	tables, err := experiments.All(scale)
	for _, tb := range tables {
		if *only != "" && !strings.Contains(tb.Title, *only) {
			continue
		}
		fmt.Println(tb.String())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("regenerated %d tables in %v\n", len(tables), time.Since(start).Round(time.Millisecond))
}
