// Command fpmload load-tests `fpm serve`: it drives the T1–T6 workload
// taxonomy (internal/loadgen) over real HTTP, records HDR-style latency
// summaries (p50/p95/p99/max), throughput and outcome counts, splits
// queue-wait from mine-time, and emits the results as machine-readable
// BENCH_serve.json, so the service's performance trajectory is a tracked
// artifact. Each workload is gated against its latency SLO
// budget; a violation exits 1, which is the CI regression gate.
//
// Usage:
//
//	fpmload [-addr http://host:port] [-workloads T1,T3,T4] [-duration 10s]
//	        [-workers 4] [-qps 0] [-queue-cap 64] [-seed 1]
//	        [-max-concurrent N] [-mem-budget-mb N]
//	        [-no-dataset-cache] [-no-result-cache] [-cache-compare]
//	        [-out BENCH_serve.json] [-datadir DIR]
//	        [-slo-admit-p99-ms N] [-slo-e2e-p99-ms N] [-no-slo]
//
// With no -addr the driver self-hosts the production serve wiring
// (internal/serve) on a loopback port, so a bare `fpmload` measures this
// checkout end to end — including the multi-runner scheduler and the
// dataset/result caches (-max-concurrent, -mem-budget-mb, -no-*-cache
// shape that instance). -cache-compare is the cache-effectiveness gate:
// it first runs T3 (hot-key) against a cache-disabled twin of the same
// instance, records it as "T3-nocache", then requires the cached T3's
// end-to-end p99 to come in strictly below the cache-off run — a
// regression there fails the report like any other SLO violation.
// SIGINT/SIGTERM drain gracefully mid-storm: arrivals stop, in-flight
// waits unwind, the partial report is still written, and the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fpm/internal/hdr"
	"fpm/internal/loadgen"
	"fpm/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "", "target server base URL (e.g. http://localhost:9090); empty self-hosts the real serve wiring on a loopback port")
		workloads = fs.String("workloads", "T1,T2,T3,T4,T5", "comma-separated workload names from the taxonomy")
		duration  = fs.Duration("duration", 10*time.Second, "per-workload arrival window")
		workers   = fs.Int("workers", 4, "client concurrency per workload")
		qps       = fs.Float64("qps", 0, "arrival rate (open loop) or completion-rate cap (closed loop); 0 = workload default")
		queueCap  = fs.Int("queue-cap", 64, "self-hosted server's pending-job queue cap")
		seed      = fs.Int64("seed", 1, "deterministic request-stream seed")
		out       = fs.String("out", "BENCH_serve.json", "output JSON artifact path")
		datadir   = fs.String("datadir", "", "directory for generated datasets (default: a temp dir, removed on exit)")
		noSLO     = fs.Bool("no-slo", false, "record SLO verdicts but always exit 0")

		scrapeFinal = fs.Bool("scrape-final", false, "after the run, scrape /metrics, embed the server's own e2e p50/p99 in the report, and cross-check its p99 against the loadgen-side recording (within the histogram's 1/32 relative error); a missing histogram family or a failed cross-check exits 1")

		maxConc        = fs.Int("max-concurrent", 4, "self-hosted server's job-runner pool size")
		memBudgetMB    = fs.Int64("mem-budget-mb", 0, "self-hosted server's global memory budget in MiB; 0 = unlimited")
		noDatasetCache = fs.Bool("no-dataset-cache", false, "disable the self-hosted server's shared dataset cache")
		noResultCache  = fs.Bool("no-result-cache", false, "disable the self-hosted server's result cache")
		stateDir       = fs.String("state-dir", "", "self-hosted server's durability directory (result-cache snapshots + job journal); empty = in-memory only")
		cacheCompare   = fs.Bool("cache-compare", false, "self-host only: run T3 against a cache-disabled twin first (recorded as T3-nocache) and require the cached T3 e2e p99 to beat it")

		sloAdmit  = fs.Float64("slo-admit-p99-ms", 0, "override every workload's p99 queue-admission budget (ms); 0 keeps defaults")
		sloE2E    = fs.Float64("slo-e2e-p99-ms", 0, "override every workload's p99 end-to-end budget (ms); 0 keeps defaults")
		sloFail   = fs.Float64("slo-max-fail-rate", -1, "override the unexpected-failure-rate budget; negative keeps defaults")
		sloReject = fs.Float64("slo-max-reject-rate", -2, "override the 429-rejection-rate budget; -2 keeps defaults, -1 unbounded")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var specs []loadgen.Spec
	for _, name := range strings.Split(*workloads, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, ok := loadgen.SpecByName(name)
		if !ok {
			fmt.Fprintf(stderr, "fpmload: unknown workload %q (taxonomy: T1..T6)\n", name)
			return 2
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		fmt.Fprintln(stderr, "fpmload: no workloads selected")
		return 2
	}

	// SIGINT/SIGTERM cancel the run context: arrivals stop, in-flight
	// polls unwind as "interrupted", and the partial report is written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := *datadir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fpmload-")
		if err != nil {
			fmt.Fprintln(stderr, "fpmload:", err)
			return 2
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	world, err := loadgen.BuildWorld(dir, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "fpmload:", err)
		return 2
	}

	hostCfg := serve.Config{
		QueueCap:            *queueCap,
		MaxConcurrent:       *maxConc,
		MemBudget:           *memBudgetMB << 20,
		DisableDatasetCache: *noDatasetCache,
		DisableResultCache:  *noResultCache,
		StateDir:            *stateDir,
	}
	base := *addr
	serverLabel := base
	if base == "" {
		hosted, shutdown, err := selfHost(hostCfg)
		if err != nil {
			fmt.Fprintln(stderr, "fpmload:", err)
			return 2
		}
		defer shutdown()
		base = hosted
		serverLabel = "self-hosted"
		fmt.Fprintf(stderr, "fpmload: self-hosting fpm serve on %s (queue cap %d, %d runners)\n", base, *queueCap, *maxConc)
	} else if *cacheCompare {
		fmt.Fprintln(stderr, "fpmload: -cache-compare requires self-hosting (omit -addr)")
		return 2
	}
	client := loadgen.NewClient(base)

	rep := loadgen.NewReport(serverLabel, *seed)

	// The cache-effectiveness baseline: the same T3 hot-key storm against a
	// twin instance with both caches off, recorded as "T3-nocache". The
	// cached T3 from the main loop must beat its e2e p99, or the report
	// fails — that comparison is the CI assertion that the caches earn
	// their keep on the workload they exist for.
	var nocacheP99 int64
	if *cacheCompare && ctx.Err() == nil {
		spec3, _ := loadgen.SpecByName("T3")
		if !hasSpec(specs, "T3") {
			specs = append(specs, spec3)
		}
		noCfg := hostCfg
		noCfg.DisableDatasetCache, noCfg.DisableResultCache = true, true
		noCfg.StateDir = "" // the twin must not share (or touch) the durable state
		noBase, noShutdown, err := selfHost(noCfg)
		if err != nil {
			fmt.Fprintln(stderr, "fpmload:", err)
			return 2
		}
		fmt.Fprintf(stderr, "fpmload: T3-nocache baseline: %s loop, %v, %d workers (caches disabled)\n", spec3.Loop, *duration, *workers)
		cfg := loadgen.RunConfig{Duration: *duration, Workers: *workers, QPS: *qps, Seed: *seed}
		if s := overrideSLO(spec3.SLO, *sloAdmit, *sloE2E, *sloFail, *sloReject); s != nil {
			cfg.SLO = s
		}
		res, err := loadgen.RunWorkload(ctx, loadgen.NewClient(noBase), world, spec3, cfg)
		noShutdown()
		if err != nil {
			fmt.Fprintf(stderr, "fpmload: T3-nocache: %v\n", err)
			return 2
		}
		res.Workload, res.Title = "T3-nocache", "hot-key-nocache"
		nocacheP99 = res.E2E.P99NS
		rep.Add(res)
		printSummary(stdout, res)
	}
	// srvE2E accumulates the loadgen-side view of the server's e2e
	// histogram across the main-loop workloads (the cache-compare baseline
	// runs against a twin instance whose metrics the final scrape cannot
	// see, so it stays out).
	var srvE2E hdr.Hist
	for _, spec := range specs {
		if ctx.Err() != nil {
			break
		}
		fmt.Fprintf(stderr, "fpmload: %s %s: %s loop, %v, %d workers\n", spec.Name, spec.Title, spec.Loop, *duration, *workers)
		cfg := loadgen.RunConfig{Duration: *duration, Workers: *workers, QPS: *qps, Seed: *seed, ServerE2E: &srvE2E}
		if s := overrideSLO(spec.SLO, *sloAdmit, *sloE2E, *sloFail, *sloReject); s != nil {
			cfg.SLO = s
		}
		res, err := loadgen.RunWorkload(ctx, client, world, spec, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "fpmload: %s: %v\n", spec.Name, err)
			return 2
		}
		rep.Add(res)
		printSummary(stdout, res)
	}

	// The cache-effectiveness verdict: cached T3 must beat the cache-off
	// baseline's e2e p99. Appended as a violation on the cached T3 result
	// so it gates the exit code and lands in the artifact like any other
	// budget breach.
	if *cacheCompare && ctx.Err() == nil && nocacheP99 > 0 {
		for i := range rep.Workloads {
			res := &rep.Workloads[i]
			if res.Workload != "T3" {
				continue
			}
			if res.E2E.P99NS >= nocacheP99 {
				v := loadgen.Violation{
					Workload: "T3",
					Budget:   "cache_effectiveness_e2e_p99_ms",
					Limit:    float64(nocacheP99) / 1e6,
					Actual:   float64(res.E2E.P99NS) / 1e6,
					Detail:   "cached hot-key p99 must come in strictly below the cache-disabled baseline (T3-nocache)",
				}
				res.Violations = append(res.Violations, v)
				res.Pass = false
				rep.Pass = false
			} else {
				fmt.Fprintf(stderr, "fpmload: cache effectiveness: T3 e2e p99 %.2fms vs nocache %.2fms (%.1fx)\n",
					float64(res.E2E.P99NS)/1e6, float64(nocacheP99)/1e6,
					float64(nocacheP99)/float64(res.E2E.P99NS))
			}
		}
	}

	// The observability consistency gate: the server's own histogram view
	// of the run must exist and (self-hosted, when every terminal job was
	// observed by both sides) its e2e p99 must agree with the loadgen-side
	// recording to within the HDR histogram's 1/32 relative error.
	if *scrapeFinal && ctx.Err() == nil {
		sf := finalScrape(ctx, client, &srvE2E, serverLabel == "self-hosted")
		rep.ScrapeFinal = &sf
		if sf.Checked {
			fmt.Fprintf(stderr, "fpmload: scrape-final: server e2e p50/p99 %.2f/%.2fms over %d jobs; p99 cross-check rel err %.4f\n",
				sf.E2EP50MS, sf.E2EP99MS, sf.E2ECount, sf.RelErr)
		} else if sf.Pass {
			fmt.Fprintf(stderr, "fpmload: scrape-final: server e2e p50/p99 %.2f/%.2fms over %d jobs (cross-check skipped: loadgen observed %d)\n",
				sf.E2EP50MS, sf.E2EP99MS, sf.E2ECount, sf.LoadgenCount)
		}
	}

	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintln(stderr, "fpmload:", err)
		return 2
	}
	fmt.Fprintf(stderr, "fpmload: wrote %d workload results to %s\n", len(rep.Workloads), *out)

	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "fpmload: interrupted; drained gracefully")
		return 0 // a drain is a clean exit, not a gate verdict
	}
	if rep.ScrapeFinal != nil && !rep.ScrapeFinal.Pass {
		// Broken telemetry is a hard failure regardless of -no-slo: the
		// metrics endpoint disagreeing with ground truth poisons every
		// dashboard built on it.
		fmt.Fprintln(stderr, "fpmload: scrape-final:", rep.ScrapeFinal.Detail)
		return 1
	}
	if !rep.Pass {
		for _, v := range rep.Violations() {
			fmt.Fprintln(stderr, "fpmload: SLO violation:", v)
		}
		if *noSLO {
			fmt.Fprintln(stderr, "fpmload: -no-slo set; not gating")
			return 0
		}
		return 1
	}
	fmt.Fprintln(stderr, "fpmload: all SLO budgets met")
	return 0
}

// selfHost starts the production serve wiring on a loopback port and
// returns its base URL plus a shutdown func (drain the store, flush the
// durable state if -state-dir is set, then stop the HTTP listener).
func selfHost(cfg serve.Config) (string, func(), error) {
	inst := serve.NewInstance(cfg)
	if inst.DurabilityErr != nil {
		return "", nil, inst.DurabilityErr
	}
	lnAddr, err := inst.Server.Start("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	shutdown := func() {
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = inst.Close(shctx)
	}
	return "http://" + lnAddr.String(), shutdown, nil
}

// finalScrape pulls /metrics after the run, extracts the server's e2e
// histogram summary, and — when self-hosting observed every terminal job
// (counts match) — cross-checks the server's full-resolution p99 gauge
// against the loadgen-side server_e2e recording. Both sides record the
// identical int64 (job Finished − Submitted) into the same HDR geometry,
// so agreement within 1/32 relative error is a hard invariant, not a
// statistical hope.
func finalScrape(ctx context.Context, c *loadgen.Client, h *hdr.Hist, selfHosted bool) loadgen.ScrapeFinal {
	sf := loadgen.ScrapeFinal{
		LoadgenCount: int64(h.Count()),
		LoadgenP99MS: float64(h.Quantile(0.99)) / 1e6,
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		sf.Detail = "scrape failed: " + err.Error()
		return sf
	}
	if !strings.Contains(text, "fpm_job_e2e_seconds_bucket{") {
		sf.Detail = "fpm_job_e2e_seconds histogram missing from /metrics"
		return sf
	}
	m := loadgen.ParsePrometheus(text)
	sf.E2EP50MS = m["fpm_job_e2e_seconds_p50_seconds"] * 1e3
	sf.E2EP99MS = m["fpm_job_e2e_seconds_p99_seconds"] * 1e3
	sf.E2ECount = int64(m["fpm_job_e2e_seconds_count"])
	sf.Pass = true
	if selfHosted && sf.LoadgenCount > 0 && sf.E2ECount == sf.LoadgenCount && sf.LoadgenP99MS > 0 {
		sf.Checked = true
		sf.RelErr = math.Abs(sf.E2EP99MS-sf.LoadgenP99MS) / sf.LoadgenP99MS
		if sf.RelErr > 1.0/32 {
			sf.Pass = false
			sf.Detail = fmt.Sprintf("server e2e p99 %.3fms disagrees with loadgen-side %.3fms (rel err %.4f > 1/32 over %d jobs)",
				sf.E2EP99MS, sf.LoadgenP99MS, sf.RelErr, sf.E2ECount)
		}
	}
	return sf
}

func hasSpec(specs []loadgen.Spec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// printSummary renders one workload's stdout line.
func printSummary(w io.Writer, res loadgen.WorkloadResult) {
	fmt.Fprintf(w, "%-10s %-15s ops=%-5d done=%-5d cached=%-4d cancel=%-4d reject=%-4d fail=%-3d err=%-3d  admit p99 %7.2fms  e2e p50/p99 %8.2f/%8.2fms  %6.1f done/s  %s\n",
		res.Workload, res.Title, res.Ops, res.Done, res.CacheServed, res.Cancelled+res.Deadline, res.Rejected, res.Failed, res.Errors,
		float64(res.Admit.P99NS)/1e6, float64(res.E2E.P50NS)/1e6, float64(res.E2E.P99NS)/1e6,
		res.Throughput, passStr(res.Pass))
}

// passStr renders a per-workload verdict.
func passStr(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// overrideSLO applies the command-line budget overrides on top of a
// workload's defaults; nil when nothing was overridden.
func overrideSLO(base loadgen.SLO, admitMS, e2eMS, failRate, rejectRate float64) *loadgen.SLO {
	changed := false
	if admitMS > 0 {
		base.AdmitP99MS = admitMS
		changed = true
	}
	if e2eMS > 0 {
		base.E2EP99MS = e2eMS
		changed = true
	}
	if failRate >= 0 {
		base.MaxFailRate = failRate
		changed = true
	}
	if rejectRate >= -1 {
		base.MaxRejectRate = rejectRate
		changed = true
	}
	if !changed {
		return nil
	}
	return &base
}
