package telemetry

// Tests for the /jobs/{id}/events endpoint and for the server-side
// Prometheus histogram families rendered from the job store's hdr
// recorders.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpm/internal/jobs"
	"fpm/internal/metrics"
)

// GET /jobs/{id}/events over HTTP: real timeline as JSON, 404 for unknown
// ids, 405 for non-GET.
func TestEventsEndpoint(t *testing.T) {
	mine := func(ctx context.Context, _ jobs.JobRequest, _ *metrics.Recorder) (jobs.MineResult, error) {
		jobs.Emit(ctx, jobs.Event{Type: "mine_start"})
		return jobs.MineResult{Itemsets: 1}, nil
	}
	st := jobs.NewStoreWithConfig(mine, nil, jobs.StoreConfig{})
	defer st.Close()
	srv := NewServer()
	srv.AttachJobs(st, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, err := st.Submit(jobs.JobRequest{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st.Get, job.ID, "done")

	resp, err := http.Get(ts.URL + "/jobs/" + strconv.Itoa(job.ID) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var log jobs.EventLog
	if err := json.NewDecoder(resp.Body).Decode(&log); err != nil {
		t.Fatal(err)
	}
	if log.Job != job.ID || len(log.Events) == 0 {
		t.Fatalf("event log = %+v", log)
	}
	if log.Events[0].Type != "submitted" || log.Events[len(log.Events)-1].Type != "terminal" {
		t.Fatalf("timeline endpoints wrong: %+v", log.Events)
	}

	if resp, err := http.Get(ts.URL + "/jobs/999/events"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status = %d, want 404", resp.StatusCode)
	}
	if req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/0/events", nil); err != nil {
		t.Fatal(err)
	} else if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE on events: status = %d, want 405", resp.StatusCode)
	}
}

// Every terminal job lands exactly once in every histogram family, and
// the rendered Prometheus text is well-formed: parseable lines, monotone
// cumulative buckets, +Inf == _count.
func TestJobHistogramsRendered(t *testing.T) {
	mine := func(context.Context, jobs.JobRequest, *metrics.Recorder) (jobs.MineResult, error) {
		time.Sleep(time.Millisecond)
		return jobs.MineResult{Itemsets: 1}, nil
	}
	st := jobs.NewStoreWithConfig(mine, nil, jobs.StoreConfig{})
	const finished = 5
	for i := 0; i < finished; i++ {
		job, err := st.Submit(jobs.JobRequest{MinSupport: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, st.Get, job.ID, "done")
	}
	st.Close()

	jh := st.Histograms()
	for name, h := range map[string]uint64{
		"queue_wait": jh.QueueWait.Count(), "mine": jh.Mine.Count(),
		"e2e": jh.E2E.Count(), "footprint": jh.Footprint.Count(),
	} {
		if h != finished {
			t.Fatalf("%s histogram count = %d, want %d", name, h, finished)
		}
	}
	if jh.E2E.Quantile(0.5) < jh.Mine.Quantile(0.5) {
		t.Fatal("e2e median below mine median")
	}

	var b strings.Builder
	if err := WriteJobHistograms(&b, jh); err != nil {
		t.Fatal(err)
	}
	checkHistogramText(t, b.String(), map[string]uint64{
		"fpm_job_queue_wait_seconds": finished,
		"fpm_job_mine_seconds":       finished,
		"fpm_job_e2e_seconds":        finished,
		"fpm_job_footprint_bytes":    finished,
	})
	for _, gauge := range []string{
		"fpm_job_e2e_seconds_p50_seconds", "fpm_job_e2e_seconds_p99_seconds",
		"fpm_job_mine_seconds_p99_seconds", "fpm_job_queue_wait_seconds_p99_seconds",
	} {
		if !strings.Contains(b.String(), "\n"+gauge+" ") {
			t.Fatalf("gauge %s missing:\n%s", gauge, b.String())
		}
	}
}

// checkHistogramText validates text-0.0.4 well-formedness of histogram
// families: every line parses, every sample has a TYPE, each family's
// cumulative buckets are monotone and its +Inf bucket equals _count,
// which equals wantCounts.
func checkHistogramText(t *testing.T, out string, wantCounts map[string]uint64) {
	t.Helper()
	typed := map[string]string{}
	lastBucket := map[string]uint64{}
	infBucket := map[string]uint64{}
	counts := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "gauge" && f[3] != "counter" && f[3] != "histogram") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		if !promLine.MatchString(line) && !strings.Contains(line, `le="+Inf"`) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && typed[f] == "histogram" {
				fam = f
				break
			}
		}
		if _, ok := typed[fam]; !ok {
			t.Fatalf("sample %q has no preceding TYPE", line)
		}
		val := line[strings.LastIndex(line, " ")+1:]
		switch {
		case strings.HasPrefix(line, fam+"_bucket{"):
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", val, err)
			}
			if n < lastBucket[fam] {
				t.Fatalf("cumulative buckets regress in %s: %q after %d", fam, line, lastBucket[fam])
			}
			lastBucket[fam] = n
			if strings.Contains(line, `le="+Inf"`) {
				infBucket[fam] = n
			}
		case strings.HasPrefix(line, fam+"_count "):
			n, _ := strconv.ParseUint(val, 10, 64)
			counts[fam] = n
		}
	}
	for fam, want := range wantCounts {
		if typed[fam] != "histogram" {
			t.Fatalf("family %s: TYPE %q, want histogram", fam, typed[fam])
		}
		if counts[fam] != want {
			t.Fatalf("%s_count = %d, want %d", fam, counts[fam], want)
		}
		if infBucket[fam] != counts[fam] {
			t.Fatalf("%s +Inf bucket %d != _count %d", fam, infBucket[fam], counts[fam])
		}
	}
}

// The /metrics endpoint carries the histogram families and the new
// counters end to end through the HTTP handler.
func TestMetricsEndpointHasJobHistograms(t *testing.T) {
	mine := func(context.Context, jobs.JobRequest, *metrics.Recorder) (jobs.MineResult, error) {
		return jobs.MineResult{Itemsets: 1}, nil
	}
	st := jobs.NewStoreWithConfig(mine, nil, jobs.StoreConfig{})
	defer st.Close()
	srv := NewServer()
	srv.AttachJobs(st, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, _ := st.Submit(jobs.JobRequest{MinSupport: 1})
	waitState(t, st.Get, job.ID, "done")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE fpm_job_e2e_seconds histogram",
		"fpm_job_e2e_seconds_count 1",
		"# TYPE fpm_jobs_shed_total counter",
		"# TYPE fpm_jobs_footprint_learned_total counter",
		"# TYPE fpm_jobs_footprint_heuristic_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}
