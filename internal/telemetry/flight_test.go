package telemetry

// Tests for the per-job flight recorder (event timelines, the
// /jobs/{id}/events endpoint, the bounded ring) and for the server-side
// Prometheus histogram families rendered from the hdr recorders.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpm/internal/metrics"
)

// The timeline of an ordinary job: submitted → running → the events the
// miner emits through its context → terminal, with strictly increasing
// sequence numbers, and every event forwarded to the sink in the same
// order.
func TestFlightRecorderTimeline(t *testing.T) {
	var sunk []string
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		Emit(ctx, Event{Type: "mine_start"})
		Emit(ctx, Event{Type: "mine_end", Itemsets: 3})
		return MineResult{Itemsets: 3}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap: 4, MaxConcurrent: 1,
		EventSink: func(ev Event) { sunk = append(sunk, ev.Type) },
	})
	defer st.Close()
	job, err := st.Submit(JobRequest{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st.Get, job.ID, "done")
	log, ok := st.Events(job.ID)
	if !ok {
		t.Fatal("no event log for the job")
	}
	var types []string
	for i, ev := range log.Events {
		if ev.Job != job.ID {
			t.Fatalf("event %d attributed to job %d, want %d", i, ev.Job, job.ID)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.TS.IsZero() {
			t.Fatalf("event %d not timestamped: %+v", i, ev)
		}
		if i > 0 && ev.TS.Before(log.Events[i-1].TS) {
			t.Fatalf("timestamps regress at event %d", i)
		}
		types = append(types, ev.Type)
	}
	want := []string{"submitted", "running", "mine_start", "mine_end", "terminal"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline = %v, want %v", types, want)
	}
	if log.Dropped != 0 {
		t.Fatalf("dropped = %d on a 5-event job", log.Dropped)
	}
	last := log.Events[len(log.Events)-1]
	if last.State != "done" || last.Itemsets != 3 {
		t.Fatalf("terminal event = %+v", last)
	}
	// The sink saw the same stream in the same order. No lock needed:
	// MaxConcurrent=1 and the job is terminal, so nothing emits anymore.
	if strings.Join(sunk, ",") != strings.Join(types, ",") {
		t.Fatalf("sink stream %v != ring %v", sunk, types)
	}
}

// A job cancelled while queued still gets a complete timeline: submitted
// then terminal, no running.
func TestFlightRecorderQueueCancelled(t *testing.T) {
	release := make(chan struct{})
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		<-release
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 8, MaxConcurrent: 1})
	blocker, _ := st.Submit(JobRequest{})
	waitState(t, st.Get, blocker.ID, "running")
	victim, _ := st.Submit(JobRequest{})
	if _, ok := st.Cancel(victim.ID); !ok {
		t.Fatal("cancel refused")
	}
	close(release)
	st.Close()
	log, _ := st.Events(victim.ID)
	var types []string
	for _, ev := range log.Events {
		types = append(types, ev.Type)
	}
	if strings.Join(types, ",") != "submitted,terminal" {
		t.Fatalf("queue-cancelled timeline = %v", types)
	}
	if last := log.Events[len(log.Events)-1]; last.State != "cancelled" {
		t.Fatalf("terminal event = %+v", last)
	}
}

// The ring drops oldest-first once past EventCap, counts what it dropped,
// and keeps the tail contiguous.
func TestFlightRecorderRingBound(t *testing.T) {
	const emits = 20
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		for i := 0; i < emits; i++ {
			Emit(ctx, Event{Type: "mine_start", Itemsets: i})
		}
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 4, MaxConcurrent: 1, EventCap: 8})
	defer st.Close()
	job, _ := st.Submit(JobRequest{})
	waitState(t, st.Get, job.ID, "done")
	log, _ := st.Events(job.ID)
	// submitted + running + 20 emits + terminal = 23 events through an
	// 8-slot ring.
	if len(log.Events) != 8 {
		t.Fatalf("ring kept %d events, cap is 8", len(log.Events))
	}
	if log.Dropped != 23-8 {
		t.Fatalf("dropped = %d, want %d", log.Dropped, 23-8)
	}
	for i, ev := range log.Events {
		if want := uint64(23 - 8 + i); ev.Seq != want {
			t.Fatalf("survivor %d has seq %d, want %d (most recent events kept)", i, ev.Seq, want)
		}
	}
	if log.Events[len(log.Events)-1].Type != "terminal" {
		t.Fatal("terminal event must survive the ring")
	}
}

// GET /jobs/{id}/events over HTTP: real timeline as JSON, 404 for unknown
// ids, 405 for non-GET.
func TestEventsEndpoint(t *testing.T) {
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		Emit(ctx, Event{Type: "mine_start"})
		return MineResult{Itemsets: 1}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{})
	defer st.Close()
	srv := NewServer()
	srv.AttachJobs(st)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, err := st.Submit(JobRequest{MinSupport: 1})
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
	var log EventLog
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

// A job that holds a real allocation through its mine must report a
// measured peak on that allocation's order, and the matching estimate
// ratio. The bound is half the allocation, not all of it: the
// runtime/metrics live-heap estimate deliberately tolerates per-P cache
// slack (that is what makes reading it cheap enough for a sampler), so
// the delta routinely lands ~10% under the true figure.
func TestStoreMeasuresPeakFootprint(t *testing.T) {
	const alloc = 8 << 20
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		buf := make([]byte, alloc)
		for i := range buf {
			buf[i] = byte(i)
		}
		time.Sleep(2 * time.Millisecond)
		runtime.KeepAlive(buf)
		return MineResult{Itemsets: int(buf[123])}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap: 4, MaxConcurrent: 1, MemBudget: 1 << 30,
		Footprint: func(JobRequest) (int64, bool) { return 16 << 20, false },
	})
	defer st.Close()
	job, _ := st.Submit(JobRequest{})
	j := waitState(t, st.Get, job.ID, "done")
	if j.PeakBytes < alloc/2 {
		t.Fatalf("peak_bytes = %d, want >= %d (half the held allocation)", j.PeakBytes, alloc/2)
	}
	if j.EstimateRatio <= 0 || j.EstimateRatio != float64(j.PeakBytes)/float64(j.MemEstimate) {
		t.Fatalf("estimate_ratio = %g with peak %d / estimate %d", j.EstimateRatio, j.PeakBytes, j.MemEstimate)
	}
	if last := mustEvents(t, st, job.ID); last.PeakBytes != j.PeakBytes {
		t.Fatalf("terminal event peak %d != job record %d", last.PeakBytes, j.PeakBytes)
	}
}

func mustEvents(t *testing.T, st *Store, id int) Event {
	t.Helper()
	log, ok := st.Events(id)
	if !ok || len(log.Events) == 0 {
		t.Fatalf("no events for job %d", id)
	}
	return log.Events[len(log.Events)-1]
}

// Every terminal job lands exactly once in every histogram family, and
// the rendered Prometheus text is well-formed: parseable lines, monotone
// cumulative buckets, +Inf == _count.
func TestJobHistogramsRendered(t *testing.T) {
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		time.Sleep(time.Millisecond)
		return MineResult{Itemsets: 1}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{})
	const jobs = 5
	for i := 0; i < jobs; i++ {
		job, err := st.Submit(JobRequest{MinSupport: 1})
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
		if h != jobs {
			t.Fatalf("%s histogram count = %d, want %d", name, h, jobs)
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
		"fpm_job_queue_wait_seconds": jobs,
		"fpm_job_mine_seconds":       jobs,
		"fpm_job_e2e_seconds":        jobs,
		"fpm_job_footprint_bytes":    jobs,
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
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 1}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{})
	defer st.Close()
	srv := NewServer()
	srv.AttachJobs(st)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, _ := st.Submit(JobRequest{MinSupport: 1})
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
