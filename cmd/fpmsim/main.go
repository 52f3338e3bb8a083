// Command fpmsim replays an instrumented mining kernel over a FIMI-format
// database on one of the simulated platforms and reports per-phase cycles,
// CPI and cache behaviour — the measurement path behind the paper's
// Figure 2 and Figure 8 reproductions, exposed for ad-hoc inputs.
//
// Usage:
//
//	fpmsim -in data.dat -support 100 -algo lcm -machine m1 \
//	       -patterns lex,aggregate,compact,tile,prefetch
//	fpmsim -in data.dat -support 100 -algo eclat -machine m2 -patterns simd -compare
//
// With -compare the baseline (no patterns) is run too and the speedup
// printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpm"
)

func main() {
	var (
		in       = flag.String("in", "", "input transaction file (FIMI format); required")
		algo     = flag.String("algo", "lcm", "kernel: lcm, eclat or fpgrowth")
		support  = flag.Int("support", 0, "absolute minimum support; required")
		machine  = flag.String("machine", "m1", "platform model: m1 (Pentium D 830) or m2 (Athlon 64 X2)")
		patterns = flag.String("patterns", "", "comma-separated tuning patterns (lex,adapt,aggregate,compact,prefetchptr,tile,prefetch,simd) or \"all\"")
		compare  = flag.Bool("compare", false, "also run the untuned baseline and print the speedup")
	)
	flag.Parse()
	if *in == "" || *support < 1 {
		flag.Usage()
		os.Exit(2)
	}

	db, err := fpm.ReadFIMIFile(*in)
	if err != nil {
		fatal(err)
	}
	var cfg fpm.MachineConfig
	switch strings.ToLower(*machine) {
	case "m1":
		cfg = fpm.M1()
	case "m2":
		cfg = fpm.M2()
	default:
		fatal(fmt.Errorf("unknown machine %q", *machine))
	}
	ps, err := fpm.ParsePatterns(*patterns, fpm.Algorithm(*algo))
	if err != nil {
		fatal(err)
	}

	report, err := fpm.Simulate(fpm.Algorithm(*algo), db, *support, ps, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s with %v\n", report.Kernel, report.Machine, ps)
	for _, p := range report.Phases {
		fmt.Printf("  %-12s %14.0f cycles  %12d instr  CPI %5.2f  L1 miss %10d  L2 miss %9d  TLB miss %8d\n",
			p.Name, p.Cycles, p.Instructions, p.CPI(), p.L1Miss, p.L2Miss, p.TLBMiss)
	}
	fmt.Printf("  %-12s %14.0f cycles\n", "total", report.TotalCycles())

	if *compare && ps != 0 {
		base, err := fpm.Simulate(fpm.Algorithm(*algo), db, *support, 0, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("baseline: %.0f cycles -> speedup %.2fx\n",
			base.TotalCycles(), base.TotalCycles()/report.TotalCycles())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpmsim:", err)
	os.Exit(1)
}
