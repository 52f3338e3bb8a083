// Command fpmexp regenerates the tables and figures of the paper's
// evaluation section on the simulated M1/M2 platforms (experiment index in
// DESIGN.md §4).
//
// Usage:
//
//	fpmexp -all                 # every artifact (EXPERIMENTS.md content)
//	fpmexp -table 2|3|4|5|6
//	fpmexp -fig 2|8
//	fpmexp -ablate              # the E9 design-choice sweeps
//	fpmexp -baseline            # native untuned kernel times per dataset
//	fpmexp -check               # machine-check the paper's claims
//	fpmexp -scale 0.01 -seed 42 # workload scale (1.0 = paper sizes)
package main

import (
	"flag"
	"fmt"
	"os"

	"fpm/internal/exp"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		table    = flag.Int("table", 0, "print table 2, 3, 4, 5 or 6")
		fig      = flag.Int("fig", 0, "reproduce figure 2 or 8")
		ablate   = flag.Bool("ablate", false, "run the E9 ablation sweeps")
		check    = flag.Bool("check", false, "verify the paper's quantitative claims against the reproduction")
		baseline = flag.Bool("baseline", false, "measure native baseline kernel times per dataset")
		scale    = flag.Float64("scale", 0.004, "dataset scale factor (1.0 = the paper's sizes)")
		seed     = flag.Int64("seed", 42, "dataset generator seed")
		cols     = flag.Int("maxcols", 0, "cap on traced LCM occ columns (0 = default)")
		vecs     = flag.Int("maxvecs", 0, "cap on traced Eclat vectors (0 = default)")
	)
	flag.Parse()

	o := exp.Options{Scale: *scale, Seed: *seed, MaxColumns: *cols, MaxVectors: *vecs}
	w := os.Stdout
	ran := false

	if *all || *table == 2 {
		fmt.Fprintln(w, "== Table 2: ALSO patterns and the properties they improve ==")
		exp.Table2(w)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 3 {
		fmt.Fprintln(w, "== Table 3: characteristics of the studied kernels ==")
		exp.Table3(w)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 4 {
		fmt.Fprintln(w, "== Table 4: optimization patterns applied per kernel ==")
		exp.Table4(w)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 5 {
		fmt.Fprintln(w, "== Table 5: simulated platforms ==")
		exp.Table5(w)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 6 {
		fmt.Fprintln(w, "== Table 6: evaluation datasets ==")
		exp.Table6(w, o)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *fig == 2 {
		exp.PrintFigure2(w, o)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *fig == 8 {
		exp.PrintFigure8(w, o)
		ran = true
	}
	if *all || *ablate {
		exp.PrintAblations(w, o)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *baseline {
		exp.PrintBaselineTimes(w, o)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *check {
		exp.PrintShapeChecks(w, o)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
