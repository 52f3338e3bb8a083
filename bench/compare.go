package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findSpec reads BENCHMARK.json from the working directory or its parent
// (the repository root, when run from bench/).
func findSpec() (spec, error) {
	var sp spec
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(data, &sp)
}

// summary is the median and quartiles of one metric over a set of runs.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

// Verdicts.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares B against A for one metric: worse or better when the
// medians differ by more than bound in that direction, unresolved when
// either side's own spread is wider than the bound, same otherwise. A
// change beyond the bound whose spread is too wide is still decided when
// every run of one side beats every run of the other. It returns both
// summaries, B's median change relative to A's, and the verdict.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (summary, summary, float64, string) {
	sa, sb := summarize(a), summarize(b)
	change := 0.0
	if sa.med != 0 {
		change = (sb.med - sa.med) / sa.med
	}
	worse := change // positive is worse
	if !lowerIsBetter {
		worse = -change
	}
	worseAll, betterAll := true, true
	for _, x := range a {
		for _, y := range b {
			d := y - x
			if !lowerIsBetter {
				d = -d
			}
			worseAll = worseAll && d > 0
			betterAll = betterAll && d < 0
		}
	}
	wide := sa.spread() > bound || sb.spread() > bound
	switch {
	case worse > bound && (!wide || worseAll):
		return sa, sb, change, verdictWorse
	case worse < -bound && (!wide || betterAll):
		return sa, sb, change, verdictBetter
	case wide:
		return sa, sb, change, verdictUnresolved
	}
	return sa, sb, change, verdictSame
}

// compareMain implements `bench compare A.json B.json`: for every workload
// and end-to-end metric it prints both sides' medians and quartiles and a
// verdict against the bound in BENCHMARK.json. It exits 1 when any metric
// is worse or B has failed ops or wrong answers, 2 on bad input.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	sp, err := findSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: BENCHMARK.json:", err)
		return 2
	}
	var sides [2]resultsFile
	for i, p := range args {
		if sides[i], err = readResults(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	regressed, err := compare(sp, sides[0], sides[1], out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// compare writes the comparison table and reports whether B regressed.
func compare(sp spec, a, b resultsFile, out io.Writer) (bool, error) {
	byWorkload := func(rf resultsFile) map[string][]Run {
		m := map[string][]Run{}
		for _, r := range rf.Runs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ra, rb := byWorkload(a), byWorkload(b)
	var names []string
	for name := range ra {
		if _, ok := rb[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced runs on both sides")
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(out, "%-11s %-13s %-33s %-33s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			var xa, xb []float64
			for _, r := range ra[name] {
				xa = append(xa, r.Metrics[m.Name].Value)
			}
			for _, r := range rb[name] {
				xb = append(xb, r.Metrics[m.Name].Value)
			}
			sa, sb, change, v := judge(xa, xb, m.Better == "lower", m.Bound)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(out, "%-11s %-13s %-33s %-33s %+7.1f%% %5.0f%%  %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", sa.med, sa.q1, sa.q3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", sb.med, sb.q1, sb.q3, m.Unit),
				100*change, 100*m.Bound, v)
		}
		for side, runs := range [][]Run{ra[name], rb[name]} {
			failed, wrong := 0, 0
			for _, r := range runs {
				failed += r.Failed
				if !r.Correct {
					wrong++
				}
			}
			if failed > 0 || wrong > 0 {
				fmt.Fprintf(out, "%-11s %s: %d failed ops, %d runs with failed checks\n", name, string(rune('A'+side)), failed, wrong)
				if side == 1 {
					regressed = true
				}
			}
		}
	}
	return regressed, nil
}
