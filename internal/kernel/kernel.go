// Package kernel is the one table that turns an algorithm name into a
// miner. The public fpm API builds every miner through it, and the job
// service checks submitted kernel names against it without building one.
package kernel

import (
	"fmt"
	"sort"
	"strings"

	"fpm/internal/apriori"
	"fpm/internal/cancel"
	"fpm/internal/eclat"
	"fpm/internal/fpgrowth"
	"fpm/internal/lcm"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// Func builds one kernel with the given patterns, an optional counter
// recorder, an optional kernel-span trace recorder and an optional
// cancellation flag; any of the three may be nil. tr must only be set for
// a miner that runs sequentially: under the scheduler the worker task
// spans own the timeline. Every kernel is a mine.Splitter, the one form
// the work-stealing pool runs.
type Func func(mine.PatternSet, *metrics.Recorder, *trace.Recorder, *cancel.Flag) mine.Splitter

// Table is the one place an Algorithm becomes a Miner, and every entry
// takes the same four arguments. LCM, Eclat and FP-Growth record their
// own counters, trace first-level subtrees, poll the cancellation flag at
// every recursion node and split through their own recursion under the
// pool. Apriori records only its emissions, polls the flag once per level
// and every 2^16 candidate tests of a counting scan, and never splits:
// under the pool it runs as one task. Nothing modifies it.
var Table = map[mine.Algorithm]Func{
	mine.LCM: func(ps mine.PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) mine.Splitter {
		return lcm.New(lcm.Options{Patterns: ps, Metrics: rec, Trace: tr, Cancel: cf})
	},
	mine.Eclat: func(ps mine.PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) mine.Splitter {
		return eclat.New(eclat.Options{Patterns: ps, Metrics: rec, Trace: tr, Cancel: cf})
	},
	mine.FPGrowth: func(ps mine.PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) mine.Splitter {
		return fpgrowth.New(fpgrowth.Options{Patterns: ps, Metrics: rec, Trace: tr, Cancel: cf})
	},
	mine.Apriori: func(_ mine.PatternSet, rec *metrics.Recorder, _ *trace.Recorder, cf *cancel.Flag) mine.Splitter {
		return apriori.New(apriori.Options{Metrics: rec, Cancel: cf})
	},
}

// Names lists the table's algorithms in ascending order.
func Names() []mine.Algorithm {
	names := make([]mine.Algorithm, 0, len(Table))
	for a := range Table {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// Lookup looks algo up in the table; the error for an unknown name lists
// the valid ones.
func Lookup(algo mine.Algorithm) (Func, error) {
	k, ok := Table[algo]
	if !ok {
		valid := make([]string, 0, len(Table))
		for _, a := range Names() {
			valid = append(valid, string(a))
		}
		return nil, fmt.Errorf("fpm: unknown algorithm %q (valid: %s)", algo, strings.Join(valid, ", "))
	}
	return k, nil
}
