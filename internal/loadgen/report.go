package loadgen

import (
	"encoding/json"
	"os"
	"runtime"

	"fpm/internal/hdr"
)

// WorkloadResult is one workload's measured outcome — the unit of the
// BENCH_serve.json trajectory.
type WorkloadResult struct {
	Workload string `json:"workload"`
	Title    string `json:"title"`
	Loop     string `json:"loop"`
	Workers  int    `json:"workers"`
	// QPS is the configured arrival/cap rate; 0 means uncapped closed loop.
	QPS        float64 `json:"qps,omitempty"`
	DurationNS int64   `json:"duration_ns"`

	// Ops counts completed operations (all outcomes).
	Ops       int `json:"ops"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Deadline  int `json:"deadline"`
	Cancelled int `json:"cancelled"`
	Rejected  int `json:"rejected"`
	Errors    int `json:"errors"`
	// Interrupted counts ops cut off by a drain (SIGTERM) mid-wait; they
	// are excluded from latency summaries and SLO rates.
	Interrupted int `json:"interrupted,omitempty"`

	// Throughput is successful jobs per second of workload wall time.
	Throughput float64 `json:"throughput_done_per_sec"`

	// Latency splits: Admit is the POST round trip, E2E submit→terminal,
	// QueueWait/MineTime the server-side split from job timestamps.
	// ServerE2E is queue+mine — the job's server-side submitted→terminal
	// span, the same quantity the server's own fpm_job_e2e_seconds
	// histogram records (E2E additionally includes client polling).
	Admit     hdr.Summary `json:"admit"`
	E2E       hdr.Summary `json:"e2e"`
	QueueWait hdr.Summary `json:"queue_wait"`
	MineTime  hdr.Summary `json:"mine_time"`
	ServerE2E hdr.Summary `json:"server_e2e"`

	// CacheServed counts completed jobs the server answered from its
	// result cache (served_from_cache in the job record) — T3's hot keys
	// should drive this up, T6's cold sweep should keep it near zero.
	CacheServed int `json:"cache_served,omitempty"`

	// HotRuns/HotDivergence: T3 result-consistency check. HotDivergence
	// is the number of distinct itemset counts beyond the first seen
	// across completed hot repetitions (0 = all agreed).
	HotRuns       int `json:"hot_runs,omitempty"`
	HotDivergence int `json:"hot_divergence,omitempty"`

	// Gauges is the final /metrics scrape of the fpm_jobs_* family after
	// the workload drained.
	Gauges map[string]float64 `json:"gauges,omitempty"`

	SLO        SLO         `json:"slo"`
	Violations []Violation `json:"violations,omitempty"`
	Pass       bool        `json:"pass"`
}

// ScrapeFinal is the post-run /metrics scrape embedded in the report by
// fpmload -scrape-final: the server's own latency-histogram view of the
// run, plus the cross-check verdict against the loadgen-side recording.
type ScrapeFinal struct {
	// E2EP50MS/E2EP99MS are the server's full-resolution e2e quantile
	// gauges (fpm_job_e2e_seconds_p50_seconds / _p99_seconds), in ms.
	E2EP50MS float64 `json:"e2e_p50_ms"`
	E2EP99MS float64 `json:"e2e_p99_ms"`
	// E2ECount is the server's fpm_job_e2e_seconds_count — every job the
	// store has recorded a terminal for since it started.
	E2ECount int64 `json:"e2e_count"`
	// LoadgenP99MS is the p99 of the loadgen-side server_e2e recording
	// merged across all workloads, in ms.
	LoadgenP99MS float64 `json:"loadgen_p99_ms"`
	// LoadgenCount is how many samples the loadgen side recorded.
	LoadgenCount int64 `json:"loadgen_count"`
	// Checked is true when the counts matched and the p99 cross-check ran;
	// RelErr is then |server − loadgen| / loadgen.
	Checked bool    `json:"checked"`
	RelErr  float64 `json:"rel_err,omitempty"`
	// Pass is false when the histogram family was missing or the
	// cross-check exceeded the histogram's 1/32 relative-error bound.
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Report is the BENCH_serve.json artifact schema: tool + toolchain
// identity, then results.
type Report struct {
	Tool      string           `json:"tool"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	Server    string           `json:"server"` // "self-hosted" or the target addr
	Seed      int64            `json:"seed"`
	Workloads []WorkloadResult `json:"workloads"`
	// ScrapeFinal holds the post-run server-side histogram scrape and
	// cross-check when fpmload ran with -scrape-final.
	ScrapeFinal *ScrapeFinal `json:"scrape_final,omitempty"`
	Pass        bool         `json:"pass"`
}

// NewReport stamps the toolchain identity.
func NewReport(server string, seed int64) *Report {
	return &Report{
		Tool:      "cmd/fpmload",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Server:    server,
		Seed:      seed,
		Pass:      true,
	}
}

// Add appends a workload result and folds its pass/fail into the report.
func (r *Report) Add(wr WorkloadResult) {
	r.Workloads = append(r.Workloads, wr)
	if !wr.Pass {
		r.Pass = false
	}
}

// Violations collects every budget breach across workloads.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, w := range r.Workloads {
		out = append(out, w.Violations...)
	}
	return out
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
