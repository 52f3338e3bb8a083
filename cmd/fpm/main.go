// Command fpm mines frequent itemsets from a FIMI-format transaction file.
//
// Usage:
//
//	fpm -in transactions.dat -support 100
//	    [-algo lcm|eclat|fpgrowth|apriori|auto]
//	    [-patterns lex,adapt,aggregate,compact,prefetchptr,tile,prefetch,simd|all]
//	    [-workers N] [-out results.txt] [-count]
//	    [-partition] [-mem-budget 64M] [-checkpoint file] [-resume]
//	    [-timeout 30s] [-stats table|json] [-describe]
//
// With -algo auto the kernel and tuning patterns are selected from the
// input's measured characteristics (density, clustering, transaction
// count), implementing the paper's §6 transformation-selection problem.
//
// With -partition the input is never loaded whole: it is mined
// out-of-core with the SON two-pass algorithm, streaming the file in
// chunks sized to -mem-budget (bytes, with optional K/M/G suffix) and
// recounting candidate supports exactly on a second pass. The result is
// identical to the in-memory run; -partition accepts every kernel but
// needs an explicit -algo (the autotuner needs the loaded database).
//
// With -checkpoint (or -resume, which defaults the sidecar to
// <in>.fpmck) a partitioned run persists its progress after every chunk
// with an atomic temp-file + rename, so a crashed or cancelled run loses
// at most the chunk in flight; -resume validates the sidecar against the
// input and configuration and skips every chunk the previous run
// completed, silently starting fresh on any mismatch. The sidecar is
// removed when the run completes.
//
// With -timeout the run is bounded in wall time: lcm, eclat and fpgrowth
// poll a cancellation flag at every recursion node, apriori once per level
// and inside its counting scans, the scheduler drops queued tasks, and
// partitioned runs stop at the next chunk boundary, exiting with a
// deadline error. apriori has no recursion to split, so with
// -workers != 1 it runs as one task on one worker.
//
// With -stats the run's observability counters (nodes expanded, support
// countings, itemsets emitted, candidate prunes, and — with -workers != 1 —
// the work-stealing scheduler's task/steal/utilization counters) are
// printed to stdout as an aligned table or as JSON (the machine-readable
// metrics.Snapshot schema); the itemset listing is then suppressed unless
// -out redirects it to a file.
//
// With -trace the run's span timeline — one track per scheduler worker,
// kernel first-level subtrees on sequential runs, partition phases and
// chunks out-of-core, plus sampled counter series — is written as Chrome
// trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. With -telemetry-addr the run is additionally
// observable live over HTTP (/metrics Prometheus text, /progress JSON,
// /healthz, /debug/pprof) while it mines.
//
// The `fpm serve` subcommand runs a long-lived mining server: jobs are
// POSTed to /jobs and mined by a pool of N runners (-max-concurrent),
// with the same live telemetry endpoints following the runs in flight
// (see -help of `fpm serve`).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fpm"
	"fpm/internal/mine"
	"fpm/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "fpm:", strings.TrimPrefix(err.Error(), "fpm: "))
		os.Exit(1)
	}
}

// errUsage signals a flag/usage failure (exit code 2); flag.FlagSet has
// already printed the diagnostics.
var errUsage = fmt.Errorf("usage")

// run executes one CLI invocation. It is the testable core of main: golden
// tests drive it with an argument vector and in-memory writers.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("fpm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input transaction file (FIMI format); required")
		out      = fs.String("out", "", "output file (default stdout)")
		algo     = fs.String("algo", "auto", "mining kernel, or auto to pick one from the input (an unknown name lists the kernels)")
		support  = fs.Int("support", 0, "absolute minimum support; required")
		patterns = fs.String("patterns", "", "comma-separated tuning patterns, or \"all\" for every applicable pattern (ignored with -algo auto)")
		count    = fs.Bool("count", false, "print only the number of frequent itemsets")
		workers  = fs.Int("workers", 1, "work-stealing mining workers (1 = sequential; 0 = GOMAXPROCS)")
		stats    = fs.String("stats", "", "print run-time mining counters to stdout: \"table\" or \"json\" (itemset listing suppressed unless -out is set)")
		describe = fs.Bool("describe", false, "print dataset statistics and the autotuner recommendation, then exit")
		part     = fs.Bool("partition", false, "mine out-of-core: stream the file in bounded chunks (SON two-pass) instead of loading it")
		budget   = fs.String("mem-budget", "64M", "out-of-core memory budget in bytes (K/M/G suffixes allowed); resident chunk + kernel working set stay within it")
		traceOut = fs.String("trace", "", "write the run's span timeline to this file as Chrome trace-event JSON (Perfetto/chrome://tracing loadable)")
		teleAddr = fs.String("telemetry-addr", "", "serve live run telemetry over HTTP on this address (/metrics, /progress, /healthz, /debug/pprof)")
		timeout  = fs.Duration("timeout", 0, "bound mining wall time; overrunning runs are cancelled cooperatively and exit with a deadline error")
		ckpt     = fs.String("checkpoint", "", "out-of-core: persist progress to this sidecar file after every chunk (crash-safe; removed on success)")
		resume   = fs.Bool("resume", false, "out-of-core: resume from the -checkpoint sidecar (default <in>.fpmck), skipping completed chunks")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *in == "" || (*support < 1 && !*describe) {
		fs.Usage()
		return errUsage
	}
	if *stats != "" && *stats != "table" && *stats != "json" {
		return fmt.Errorf("invalid -stats %q: want \"table\" or \"json\"", *stats)
	}
	if (*ckpt != "" || *resume) && !*part {
		return fmt.Errorf("-checkpoint/-resume require -partition")
	}

	// Every run records counters into one recorder, shared with -stats
	// and the live telemetry server.
	rec := fpm.NewMetricsRecorder()
	popts := []fpm.ParallelOption{fpm.ParallelMetrics(rec)}
	if *timeout > 0 {
		ctx, cancelRun := context.WithTimeout(context.Background(), *timeout)
		defer cancelRun()
		popts = append(popts, fpm.WithContext(ctx))
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		popts = append(popts, fpm.WithTrace(fpm.NewTraceRecorder(f)))
	}
	if *teleAddr != "" {
		srv := telemetry.NewServer()
		srv.SetRecorder(rec)
		addr, err := srv.Start(*teleAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fpm: telemetry listening on http://%s\n", addr)
		defer func() { _ = srv.Shutdown(context.Background()) }()
	}

	a := fpm.Algorithm(*algo)
	if *part {
		// Out-of-core: the file is streamed, never loaded whole, so every
		// path that needs the in-memory database is unavailable.
		if *describe {
			return fmt.Errorf("-describe needs the loaded database; drop -partition")
		}
		if *algo == "auto" {
			return fmt.Errorf("-partition requires an explicit -algo: the autotuner needs the loaded database")
		}
		memBytes, err := parseBytes(*budget)
		if err != nil {
			return fmt.Errorf("invalid -mem-budget %q: %w", *budget, err)
		}
		ps, err := fpm.ParsePatterns(*patterns, a)
		if err != nil {
			return err
		}
		ckptPath := *ckpt
		if ckptPath == "" && *resume {
			ckptPath = *in + ".fpmck"
		}
		if ckptPath != "" {
			popts = append(popts, fpm.WithCheckpoint(ckptPath, *resume))
		}
		sets, _, err := fpm.MinePartitioned(*in, a, ps, *support, memBytes, *workers, popts...)
		return finish(sets, rec.Snapshot(), traceFile, err, *out, *stats, *count, stdout)
	}

	db, err := fpm.ReadFIMIFile(*in)
	if err != nil {
		return err
	}

	if *describe {
		s := fpm.ComputeStats(db)
		fmt.Fprintf(stdout, "transactions: %d\nitems: %d\navg length: %.2f\nmax length: %d\ndensity: %.5f\nclustering: %.3f\n",
			s.Transactions, s.Items, s.AvgLen, s.MaxLen, s.Density, s.Clustering)
		if *support >= 1 {
			r := fpm.Recommend(db, *support)
			fmt.Fprintf(stdout, "recommendation: %s\n", r)
			for _, line := range r.Rationale {
				fmt.Fprintf(stdout, "  - %s\n", line)
			}
		}
		return nil
	}

	var ps fpm.PatternSet
	if *algo == "auto" {
		r := fpm.Recommend(db, *support)
		a, ps = r.Algorithm, r.Patterns
		fmt.Fprintf(stderr, "fpm: auto-selected %s\n", r)
	} else if ps, err = fpm.ParsePatterns(*patterns, a); err != nil {
		return err
	}
	sets, snap, err := fpm.WithMetrics(db, a, ps, *support, *workers, popts...)
	return finish(sets, snap, traceFile, err, *out, *stats, *count, stdout)
}

// finish closes the trace sink and renders the results. A mining error
// suppresses output; a trace flush/close failure after a completed mine
// still prints the results, then surfaces the error once.
func finish(sets []fpm.Itemset, snap fpm.Snapshot, traceFile *os.File, err error, out, stats string, count bool, stdout io.Writer) error {
	mined := err == nil || sets != nil
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if !mined {
		return err
	}
	if werr := writeResults(sets, snap, out, stats, count, stdout); werr != nil && err == nil {
		err = werr
	}
	return err
}

// writeResults renders the mined itemsets and/or the stats snapshot,
// shared by the in-memory and out-of-core paths.
func writeResults(sets []fpm.Itemset, snap fpm.Snapshot, out, stats string, count bool, stdout io.Writer) error {
	if count {
		fmt.Fprintln(stdout, len(sets))
		return nil
	}

	// Result destination: stdout normally; with -stats the counters own
	// stdout and the listing only goes to an explicit -out file.
	resultW := io.Writer(nil)
	var flushers []*bufio.Writer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		flushers = append(flushers, bw)
		resultW = bw
	} else if stats == "" {
		bw := bufio.NewWriter(stdout)
		flushers = append(flushers, bw)
		resultW = bw
	}

	if resultW != nil {
		mine.SortCanonical(sets)
		for _, s := range sets {
			for i, it := range s.Items {
				if i > 0 {
					fmt.Fprint(resultW, " ")
				}
				fmt.Fprintf(resultW, "%d", it)
			}
			fmt.Fprintf(resultW, " (%d)\n", s.Support)
		}
	}
	for _, bw := range flushers {
		if err := bw.Flush(); err != nil {
			return err
		}
	}

	switch stats {
	case "table":
		if err := snap.WriteTable(stdout); err != nil {
			return err
		}
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return err
		}
	}
	return nil
}

// parseBytes parses a byte count with an optional K/M/G binary suffix
// ("512", "64K", "1.5M", "2G").
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, s = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, s = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, s = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a size: %q", s)
	}
	n := int64(v * float64(mult))
	if n <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return n, nil
}
