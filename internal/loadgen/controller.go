// Package loadgen drives `fpm serve` under synthetic traffic: a T1–T5
// workload taxonomy, an open/closed-loop arrival controller, and latency
// recorded in internal/hdr histograms producing p50/p95/p99/max
// summaries. The server records its per-job latencies into the same
// geometry, which is what makes the harness's cross-check of
// server-reported quantiles against its own (-scrape-final) valid within
// one shared 1/32 error bound. cmd/fpmload emits the results
// as BENCH_serve.json and gates them against declared latency SLO
// budgets, so the service's performance trajectory is a tracked artifact
// — the paper's thesis applied to the serving layer: an
// architecture-level pattern only counts when it is measured on the real
// hot path.
package loadgen

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"time"

	"fpm/internal/hdr"
)

// RunConfig shapes one workload run.
type RunConfig struct {
	// Duration bounds new-arrival generation; in-flight operations finish
	// (or are interrupted by ctx) after it elapses.
	Duration time.Duration
	// Workers is the client concurrency (default 4).
	Workers int
	// QPS caps the arrival rate. Open-loop workloads require it (default
	// 20); for closed-loop workloads 0 means "as fast as completions
	// allow".
	QPS float64
	// Seed derives each worker's deterministic request stream.
	Seed int64
	// SLO, when non-nil, replaces the workload's default budget.
	SLO *SLO
	// ServerE2E, when non-nil, receives every sample's server-side
	// end-to-end latency (QueueNS + MineNS, i.e. the job's Finished −
	// Submitted — the exact value the server records into its own
	// fpm_job_e2e_seconds histogram). The caller owns the accumulator and
	// can merge runs, then cross-check its quantiles against a final
	// /metrics scrape.
	ServerE2E *hdr.Hist
}

// collector accumulates one worker's samples; workers never share state,
// and the per-worker histograms are merged after the run — the same
// discipline the mining layer uses for its shard arenas, and the property
// the histogram tests pin.
type collector struct {
	admit, e2e, queue, mine hdr.Hist
	// srv mirrors the server's own e2e recording: queue + mine from the
	// job's timestamps, excluding the client's polling overhead.
	srv         hdr.Hist
	counts      map[string]int
	hotCounts   map[int]int
	cacheServed int
}

func newCollector() *collector {
	return &collector{counts: make(map[string]int), hotCounts: make(map[int]int)}
}

func (col *collector) record(s Sample) {
	col.counts[s.Outcome]++
	switch s.Outcome {
	case OutcomeInterrupted:
		return // cut off mid-wait: its latency would be a drain artifact
	case OutcomeRejected, OutcomeError:
		col.admit.Record(s.AdmitNS)
		return
	}
	col.admit.Record(s.AdmitNS)
	col.e2e.Record(s.E2ENS)
	col.queue.Record(s.QueueNS)
	col.mine.Record(s.MineNS)
	col.srv.Record(s.QueueNS + s.MineNS)
	if s.Hot && s.Outcome == OutcomeDone {
		col.hotCounts[s.Itemsets]++
	}
	if s.FromCache && s.Outcome == OutcomeDone {
		col.cacheServed++
	}
}

func (col *collector) merge(other *collector) {
	col.admit.Merge(&other.admit)
	col.e2e.Merge(&other.e2e)
	col.queue.Merge(&other.queue)
	col.mine.Merge(&other.mine)
	col.srv.Merge(&other.srv)
	for k, v := range other.counts {
		col.counts[k] += v
	}
	for k, v := range other.hotCounts {
		col.hotCounts[k] += v
	}
	col.cacheServed += other.cacheServed
}

// RunWorkload drives one workload against the server behind c and
// assembles its result, including the final backpressure gauges and the
// SLO verdict. A cancelled ctx (SIGTERM drain) stops arrivals and
// interrupts in-flight waits; the partial result is still returned.
func RunWorkload(ctx context.Context, c *Client, w World, spec Spec, cfg RunConfig) (WorkloadResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	qps := cfg.QPS
	if spec.Loop == "open" && qps <= 0 {
		qps = 20
	}

	op := spec.NewOp(w)
	cols := make([]*collector, cfg.Workers)
	for i := range cols {
		cols[i] = newCollector()
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	var overflow int
	if spec.Loop == "open" {
		runOpenLoop(ctx, c, op, cols, cfg, qps, deadline, &wg, &overflow)
	} else {
		runClosedLoop(ctx, c, op, cols, cfg, qps, deadline, &wg)
	}
	wg.Wait()
	cols[0].counts[OutcomeRejected] += overflow
	elapsed := time.Since(start)

	// Merge the per-worker shards and assemble the result.
	col := cols[0]
	for _, other := range cols[1:] {
		col.merge(other)
	}
	res := WorkloadResult{
		Workload:   spec.Name,
		Title:      spec.Title,
		Loop:       spec.Loop,
		Workers:    cfg.Workers,
		QPS:        qps,
		DurationNS: elapsed.Nanoseconds(),

		Done:        col.counts[OutcomeDone],
		Failed:      col.counts[OutcomeFailed],
		Deadline:    col.counts[OutcomeDeadline],
		Cancelled:   col.counts[OutcomeCancelled],
		Rejected:    col.counts[OutcomeRejected],
		Errors:      col.counts[OutcomeError],
		Interrupted: col.counts[OutcomeInterrupted],

		Admit:     col.admit.Summarize(),
		E2E:       col.e2e.Summarize(),
		QueueWait: col.queue.Summarize(),
		MineTime:  col.mine.Summarize(),
		ServerE2E: col.srv.Summarize(),
	}
	if cfg.ServerE2E != nil {
		cfg.ServerE2E.Merge(&col.srv)
	}
	for _, n := range col.counts {
		res.Ops += n
	}
	res.Ops -= res.Interrupted
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Done) / sec
	}
	res.CacheServed = col.cacheServed
	for _, n := range col.hotCounts {
		res.HotRuns += n
	}
	if len(col.hotCounts) > 1 {
		res.HotDivergence = len(col.hotCounts) - 1
	}

	// Let the server drain, then snapshot the backpressure gauges so the
	// artifact records the post-workload steady state. Skipped when the
	// run was interrupted (the server may be gone).
	if ctx.Err() == nil {
		idleCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := c.WaitIdle(idleCtx); err == nil {
			if m, err := c.Metrics(idleCtx); err == nil {
				res.Gauges = make(map[string]float64)
				for k, v := range m {
					if strings.HasPrefix(k, "fpm_jobs_") || strings.HasPrefix(k, "fpm_cache_") {
						res.Gauges[k] = v
					}
				}
			}
		}
	}

	slo := spec.SLO
	if cfg.SLO != nil {
		slo = *cfg.SLO
	}
	res.SLO = slo
	res.Violations = slo.Check(res)
	res.Pass = len(res.Violations) == 0
	return res, nil
}

// runClosedLoop starts cfg.Workers goroutines that each issue the next
// operation as soon as the previous one completes, optionally pacing the
// fleet through a shared QPS token ticker.
func runClosedLoop(ctx context.Context, c *Client, op Op, cols []*collector, cfg RunConfig, qps float64, deadline time.Time, wg *sync.WaitGroup) {
	var gate *time.Ticker
	if qps > 0 {
		gate = time.NewTicker(time.Duration(float64(time.Second) / qps))
	}
	for i := range cols {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			col := cols[id]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if gate != nil {
					select {
					case <-gate.C:
					case <-ctx.Done():
						return
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				col.record(op(ctx, c, rng))
			}
		}(i)
	}
	if gate != nil {
		go func() { // stop the ticker once everyone is done
			wg.Wait()
			gate.Stop()
		}()
	}
}

// runOpenLoop generates arrivals at a fixed rate regardless of
// completions — the ssbench shape. Each arrival carries its scheduled
// time; latency is measured from it, so client-side backlog waits count
// against the service (no coordinated omission). The backlog is bounded:
// arrivals that find every worker and backlog slot busy are dropped and
// counted into *overflow (folded into the rejected outcome after the run
// — backpressure is backpressure wherever it bites).
func runOpenLoop(ctx context.Context, c *Client, op Op, cols []*collector, cfg RunConfig, qps float64, deadline time.Time, wg *sync.WaitGroup, overflow *int) {
	arrivals := make(chan time.Time, cfg.Workers*4)
	for i := range cols {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			col := cols[id]
			for scheduled := range arrivals {
				backlog := time.Since(scheduled)
				s := op(ctx, c, rng)
				if s.E2ENS > 0 {
					s.E2ENS += backlog.Nanoseconds()
				}
				col.record(s)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(arrivals)
		tick := time.NewTicker(time.Duration(float64(time.Second) / qps))
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if !now.Before(deadline) {
					return
				}
				select {
				case arrivals <- now:
				default:
					*overflow++ // fleet cannot absorb the configured rate
				}
			}
		}
	}()
}
