package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpm/internal/hdr"
	"fpm/internal/jobs"
	"fpm/internal/metrics"
	"fpm/internal/servecache"
)

// WritePrometheus renders a metrics.Snapshot in the Prometheus text
// exposition format (version 0.0.4). The format is a stable line protocol
// — `# HELP`/`# TYPE` comments plus `name{labels} value` samples — so it
// is written by hand rather than through a client library (the repo has
// no external dependencies). Counters carry the conventional `_total`
// suffix; durations are exported in seconds per Prometheus base-unit
// convention.
func WritePrometheus(w io.Writer, s metrics.Snapshot, running bool) error {
	var b bytes.Buffer

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	fmt.Fprintf(&b, "# HELP fpm_info Run identity; the labels carry the kernel name and snapshot schema version.\n"+
		"# TYPE fpm_info gauge\nfpm_info{kernel=\"%s\",schema_version=\"%d\"} 1\n",
		escapeLabel(s.Kernel), s.SchemaVersion)
	running01 := 0.0
	if running {
		running01 = 1
	}
	gauge("fpm_running", "Whether a mining run is currently live (Start called, Stop not yet).", running01)
	gauge("fpm_run_seconds", "Run wall time so far (frozen at Stop).", float64(s.WallNanos)/1e9)
	if s.Workers > 0 {
		gauge("fpm_workers", "Parallel pool size (absent for sequential runs).", float64(s.Workers))
	}

	counter("fpm_nodes_expanded_total", "Search-tree nodes expanded.", float64(s.Nodes))
	counter("fpm_support_countings_total", "Support countings performed.", float64(s.Supports))
	counter("fpm_itemsets_emitted_total", "Frequent itemsets emitted.", float64(s.Emitted))
	counter("fpm_candidate_prunes_total", "Candidate extensions pruned (support < minsup).", float64(s.Prunes))

	if ps := s.Parallel; ps != nil {
		counter("fpm_tasks_spawned_total", "Tasks accepted by the work-stealing scheduler.", float64(ps.TasksSpawned))
		counter("fpm_tasks_offered_total", "Subtrees offered to the scheduler (accepted or not).", float64(ps.TasksOffered))
		counter("fpm_tasks_stolen_total", "Tasks taken from another worker's deque.", float64(ps.TasksStolen))
		counter("fpm_steal_failures_total", "Full victim scans that found no task.", float64(ps.StealFailures))
		counter("fpm_shard_merge_seconds_total", "Wall time spent merging worker shards.", float64(ps.MergeNanos)/1e9)
		if len(ps.Workers) > 0 {
			fmt.Fprintf(&b, "# HELP fpm_worker_tasks_total Tasks run per worker.\n# TYPE fpm_worker_tasks_total counter\n")
			for _, ws := range ps.Workers {
				fmt.Fprintf(&b, "fpm_worker_tasks_total{worker=\"%d\"} %d\n", ws.ID, ws.Tasks)
			}
			fmt.Fprintf(&b, "# HELP fpm_worker_busy_seconds_total Busy wall time per worker.\n# TYPE fpm_worker_busy_seconds_total counter\n")
			for _, ws := range ps.Workers {
				fmt.Fprintf(&b, "fpm_worker_busy_seconds_total{worker=\"%d\"} %g\n", ws.ID, float64(ws.BusyNanos)/1e9)
			}
		}
	}

	if pt := s.Partition; pt != nil {
		counter("fpm_chunks_mined_total", "Out-of-core pass-1 chunks mined.", float64(pt.Chunks))
		counter("fpm_candidates_generated_total", "Locally-frequent itemsets entering the candidate union.", float64(pt.CandidatesGenerated))
		counter("fpm_candidates_surviving_total", "Candidates whose exact global support cleared minsup.", float64(pt.CandidatesSurviving))
		fmt.Fprintf(&b, "# HELP fpm_bytes_streamed_total Bytes streamed from secondary storage per pass.\n"+
			"# TYPE fpm_bytes_streamed_total counter\n"+
			"fpm_bytes_streamed_total{pass=\"1\"} %d\nfpm_bytes_streamed_total{pass=\"2\"} %d\n",
			pt.BytesPass1, pt.BytesPass2)
		fmt.Fprintf(&b, "# HELP fpm_pass_seconds_total Wall time per out-of-core pass.\n"+
			"# TYPE fpm_pass_seconds_total counter\n"+
			"fpm_pass_seconds_total{pass=\"1\"} %g\nfpm_pass_seconds_total{pass=\"2\"} %g\n",
			float64(pt.Pass1Nanos)/1e9, float64(pt.Pass2Nanos)/1e9)
		if pt.MemBudget > 0 {
			gauge("fpm_mem_budget_bytes", "Configured out-of-core memory budget.", float64(pt.MemBudget))
		}
		if pt.InputBytes > 0 {
			gauge("fpm_input_bytes", "On-disk size of the mined file.", float64(pt.InputBytes))
		}
	}

	_, err := w.Write(b.Bytes())
	return err
}

// WriteJobMetrics renders the job store's depth gauges and lifecycle
// counters in the Prometheus text exposition format. Served after the run
// snapshot on /metrics when a job store is attached, so operators and load
// harnesses can watch queue backpressure (fpm_jobs_queued vs
// fpm_jobs_queue_cap) and the queue-full rejection rate.
func WriteJobMetrics(w io.Writer, js jobs.StoreStats) error {
	var b bytes.Buffer
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge("fpm_jobs_queued", "Jobs admitted and waiting for a runner.", float64(js.Queued))
	gauge("fpm_jobs_running", "Jobs currently mining (up to fpm_jobs_max_concurrent).", float64(js.Running))
	gauge("fpm_jobs_queue_cap", "Configured pending-job queue capacity.", float64(js.QueueCap))
	gauge("fpm_jobs_max_concurrent", "Configured runner-pool size.", float64(js.MaxConcurrent))
	counter("fpm_jobs_submitted_total", "Jobs admitted to the queue.", float64(js.Submitted))
	counter("fpm_jobs_rejected_total", "Submissions rejected because the queue was full (HTTP 429).", float64(js.Rejected))
	counter("fpm_jobs_done_total", "Jobs finished successfully.", float64(js.Done))
	counter("fpm_jobs_failed_total", "Jobs finished with an error (including per-job deadline overruns).", float64(js.Failed))
	counter("fpm_jobs_cancelled_total", "Jobs cancelled before or during mining.", float64(js.Cancelled))
	counter("fpm_jobs_cache_served_total", "Jobs answered from the result cache without mining.", float64(js.CacheServed))
	counter("fpm_jobs_retried_total", "Mine attempts retried with backoff after a transient failure.", float64(js.Retried))
	counter("fpm_jobs_recovered_total", "Jobs resubmitted from the journal after a restart.", float64(js.Recovered))
	counter("fpm_jobs_requeued_total", "Queued jobs a graceful shutdown journaled as requeue-on-restart instead of cancelling.", float64(js.Requeued))
	_, err := w.Write(b.Bytes())
	return err
}

// Export bucket ladder for the job histograms. Histogram buckets are a
// rendering choice, not a recording one — the hdr recorder keeps full
// 1/32-relative-error resolution and CumulativeLE collapses it onto any
// ladder at scrape time — so this only fixes what a Prometheus query can
// distinguish: 1ms to 120s, the span between a result-cache hit and the
// serve SLO ceiling.
var jobTimeBucketsNS = []int64{
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000, 1_000_000_000, 2_500_000_000,
	5_000_000_000, 10_000_000_000, 30_000_000_000, 60_000_000_000, 120_000_000_000,
}

// WriteJobHistograms renders the store's per-job latency histograms as
// native Prometheus histogram families (text 0.0.4):
// cumulative `_bucket{le="..."}` samples from hdr.CumulativeLE — monotone
// by construction, and conservatively rounded in the slow direction (a
// bucket may include observations up to 1/32 above its bound, never
// below) — with the `+Inf` bucket equal to `_count` and an exact `_sum`.
// Alongside each family's p50/p99 as gauges computed from the
// full-resolution recorder, because the ladder above is far coarser than
// the recorder: a quantile interpolated from `_bucket` by a Prometheus
// server is bounded by the ladder, while the gauges keep the 1/32 bound —
// they are what the scrape-final serve gate (internal/serve,
// TestServeGateStreams) cross-checks against its own client-side
// recorder.
func WriteJobHistograms(w io.Writer, jh jobs.JobHists) error {
	var b bytes.Buffer
	seconds := func(name, help string, h *hdr.Hist) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, ub := range jobTimeBucketsNS {
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", name,
				strconv.FormatFloat(float64(ub)/1e9, 'g', -1, 64), h.CumulativeLE(ub))
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, float64(h.Sum())/1e9, name, h.Count())
		fmt.Fprintf(&b, "# HELP %s_p50_seconds Median of %s from the full-resolution recorder (1/32 relative error).\n"+
			"# TYPE %s_p50_seconds gauge\n%s_p50_seconds %g\n",
			name, name, name, name, float64(h.Quantile(0.50))/1e9)
		fmt.Fprintf(&b, "# HELP %s_p99_seconds 99th percentile of %s from the full-resolution recorder (1/32 relative error).\n"+
			"# TYPE %s_p99_seconds gauge\n%s_p99_seconds %g\n",
			name, name, name, name, float64(h.Quantile(0.99))/1e9)
	}
	seconds("fpm_job_queue_wait_seconds", "Per-job wait from submission to a runner claiming it.", &jh.QueueWait)
	seconds("fpm_job_mine_seconds", "Per-job time on a runner (mining or cache lookup); zero for jobs cancelled while queued.", &jh.Mine)
	seconds("fpm_job_e2e_seconds", "Per-job end-to-end time from submission to terminal state.", &jh.E2E)
	_, err := w.Write(b.Bytes())
	return err
}

// WriteCacheMetrics renders the serving-cache gauges and counters in the
// Prometheus text exposition format, served on /metrics after the job
// metrics when the serve wiring attaches its caches. ps is the snapshot
// persister's census, nil on a server that is not durable: the
// fpm_cache_persist_* family is then omitted, so non-durable servers keep
// their metric surface unchanged.
func WriteCacheMetrics(w io.Writer, cs servecache.Stats, ps *servecache.PersistStats) error {
	var b bytes.Buffer
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	ds, rs := cs.Dataset, cs.Result
	gauge("fpm_cache_dataset_entries", "Parsed datasets resident in the shared dataset cache.", float64(ds.Entries))
	gauge("fpm_cache_dataset_bytes", "Resident bytes of cached parsed datasets.", float64(ds.Bytes))
	counter("fpm_cache_dataset_hits_total", "Jobs that reused a cached parsed dataset.", float64(ds.Hits))
	counter("fpm_cache_dataset_misses_total", "Jobs that had to parse their dataset.", float64(ds.Misses))
	counter("fpm_cache_dataset_evictions_total", "Cold datasets evicted for space.", float64(ds.Evictions))
	counter("fpm_cache_dataset_skipped_total", "Datasets mined uncached because no room could be made.", float64(ds.Skipped))
	gauge("fpm_cache_result_entries", "Listings resident in the result cache.", float64(rs.Entries))
	gauge("fpm_cache_result_bytes", "Resident bytes of cached listings.", float64(rs.Bytes))
	fmt.Fprintf(&b, "# HELP fpm_cache_result_hits_total Queries answered from the result cache, by kind.\n"+
		"# TYPE fpm_cache_result_hits_total counter\n"+
		"fpm_cache_result_hits_total{kind=\"exact\"} %d\nfpm_cache_result_hits_total{kind=\"subsumed\"} %d\n",
		rs.HitsExact, rs.HitsSubsumed)
	counter("fpm_cache_result_misses_total", "Queries the result cache could not answer.", float64(rs.Misses))
	counter("fpm_cache_result_evictions_total", "Listings evicted for space.", float64(rs.Evictions))
	if ps != nil {
		counter("fpm_cache_persist_writes_total", "Result-cache snapshots renamed into place by the persister.", float64(ps.Writes))
		counter("fpm_cache_persist_errors_total", "Failed snapshot write attempts (the previous snapshot stays intact).", float64(ps.Errors))
		gauge("fpm_cache_persist_last_bytes", "Size of the last result-cache snapshot written.", float64(ps.LastBytes))
		gauge("fpm_cache_persist_restored", "Listings restored from the snapshot at startup.", float64(ps.Restored))
		fmt.Fprintf(&b, "# HELP fpm_cache_persist_dropped Snapshot entries dropped at restore, by reason (stale: full-content hash mismatch; unreadable: origin file gone).\n"+
			"# TYPE fpm_cache_persist_dropped gauge\n"+
			"fpm_cache_persist_dropped{reason=\"stale\"} %d\nfpm_cache_persist_dropped{reason=\"unreadable\"} %d\n",
			ps.DroppedStale, ps.DroppedUnreadable)
		gauge("fpm_cache_persist_corrupt", "Whether the snapshot file existed but failed validation and the cache started cold (0/1).", float64(ps.Corrupt))
	}
	_, err := w.Write(b.Bytes())
	return err
}

// escapeLabel escapes a Prometheus label value: backslash, double quote
// and newline are the only characters the exposition format requires
// escaping inside quoted label values.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}
