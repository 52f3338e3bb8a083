package loadgen

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"fpm/internal/serve"
)

// startServer self-hosts the production serve wiring for harness tests.
func startServer(t *testing.T, queueCap int) *Client {
	t.Helper()
	inst := serve.NewInstance(serve.Config{QueueCap: queueCap})
	ts := httptest.NewServer(inst.Server.Handler())
	t.Cleanup(func() {
		inst.Store.Shutdown()
		ts.Close()
	})
	return NewClient(ts.URL)
}

func buildTestWorld(t *testing.T) World {
	t.Helper()
	w, err := BuildWorld(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRunWorkloadT1EndToEnd drives the open-loop T1 workload against the
// real miner for a short window and sanity-checks the whole result: ops
// landed, nothing dropped, the latency split is populated and ordered
// (queue+mine ≤ e2e at the median), and the post-drain gauges are clean.
func TestRunWorkloadT1EndToEnd(t *testing.T) {
	c := startServer(t, 64)
	world := buildTestWorld(t)
	spec, _ := SpecByName("T1")

	res, err := RunWorkload(context.Background(), c, world, spec, RunConfig{
		Duration: 900 * time.Millisecond, Workers: 2, QPS: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Done == 0 {
		t.Fatalf("no operations completed: %+v", res)
	}
	if res.Errors != 0 || res.Failed != 0 {
		t.Fatalf("T1 against a healthy server dropped results: %+v", res)
	}
	if res.E2E.Count != uint64(res.Done) {
		t.Fatalf("e2e histogram holds %d samples, want %d done", res.E2E.Count, res.Done)
	}
	if res.Admit.P99NS <= 0 || res.E2E.P50NS <= 0 || res.MineTime.P50NS <= 0 {
		t.Fatalf("latency split not populated: admit=%+v e2e=%+v mine=%+v", res.Admit, res.E2E, res.MineTime)
	}
	if res.QueueWait.P50NS+res.MineTime.P50NS > res.E2E.P99NS {
		t.Fatalf("median server-side split exceeds e2e tail: queue=%d mine=%d e2e p99=%d",
			res.QueueWait.P50NS, res.MineTime.P50NS, res.E2E.P99NS)
	}
	if res.Gauges["fpm_jobs_queued"] != 0 || res.Gauges["fpm_jobs_running"] != 0 {
		t.Fatalf("post-drain gauges: %+v", res.Gauges)
	}
	if res.Gauges["fpm_jobs_done_total"] < float64(res.Done) {
		t.Fatalf("server counted %v done, harness saw %d", res.Gauges["fpm_jobs_done_total"], res.Done)
	}
	if !res.Pass {
		t.Fatalf("default SLO must pass on a clean tree: %+v", res.Violations)
	}
}

// TestRunWorkloadT4CancelStorm: the storm must actually cancel jobs, and
// every outcome must still be accounted for.
func TestRunWorkloadT4CancelStorm(t *testing.T) {
	c := startServer(t, 64)
	world := buildTestWorld(t)
	spec, _ := SpecByName("T4")

	res, err := RunWorkload(context.Background(), c, world, spec, RunConfig{
		Duration: 900 * time.Millisecond, Workers: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled+res.Deadline == 0 {
		t.Fatalf("cancel storm cancelled nothing: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("storm dropped results: %+v", res)
	}
	if got := res.Done + res.Failed + res.Deadline + res.Cancelled + res.Rejected; got != res.Ops {
		t.Fatalf("outcomes sum to %d, ops = %d", got, res.Ops)
	}
}

// TestRunWorkloadT3CachedSplit pins the cached-job latency accounting end
// to end: a hot-key run against the cached serve wiring must report jobs
// served from the result cache, and those jobs' server-side split must
// collapse the mine leg to ~zero (the regression this guards: cached jobs
// once reported phantom mine time because the timestamps were stamped as
// if a kernel had run).
func TestRunWorkloadT3CachedSplit(t *testing.T) {
	c := startServer(t, 64)
	world := buildTestWorld(t)
	spec, _ := SpecByName("T3")

	res, err := RunWorkload(context.Background(), c, world, spec, RunConfig{
		Duration: 1200 * time.Millisecond, Workers: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done == 0 || res.Errors != 0 || res.Failed != 0 {
		t.Fatalf("unhealthy T3 run: %+v", res)
	}
	if res.CacheServed == 0 {
		t.Fatalf("hot-key run never served from cache: %+v", res)
	}
	if res.CacheServed*2 < res.Done {
		t.Fatalf("cache served only %d of %d done hot-key ops", res.CacheServed, res.Done)
	}
	// With the majority of ops cache-served, the median mine time must be
	// the collapsed ≈0 of a cache hit, far below a real medium mine.
	if res.MineTime.P50NS > (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("median mine time %v with %d/%d ops cache-served: cached jobs are reporting phantom mine time",
			time.Duration(res.MineTime.P50NS), res.CacheServed, res.Done)
	}
	if res.HotDivergence != 0 {
		t.Fatalf("cached hot runs diverged: %d distinct itemset counts", res.HotDivergence+1)
	}
	if res.Gauges["fpm_jobs_cache_served_total"] < float64(res.CacheServed) {
		t.Fatalf("server counted %v cache-served, harness saw %d",
			res.Gauges["fpm_jobs_cache_served_total"], res.CacheServed)
	}
}

// TestRunWorkloadT6AllCold: every T6 submission is a freshly generated
// input identity, so nothing may be served from cache, and the per-op
// dataset files must be cleaned up after their jobs finish.
func TestRunWorkloadT6AllCold(t *testing.T) {
	c := startServer(t, 64)
	world := buildTestWorld(t)
	spec, _ := SpecByName("T6")

	res, err := RunWorkload(context.Background(), c, world, spec, RunConfig{
		Duration: 1200 * time.Millisecond, Workers: 4, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done == 0 || res.Errors != 0 || res.Failed != 0 {
		t.Fatalf("unhealthy T6 run: %+v", res)
	}
	if res.CacheServed != 0 {
		t.Fatalf("cold sweep was served from cache %d times", res.CacheServed)
	}
	if res.Gauges["fpm_cache_dataset_hits_total"] != 0 {
		t.Fatalf("distinct identities hit the dataset cache: %+v", res.Gauges)
	}
	left, err := filepath.Glob(filepath.Join(world.Dir, "cold-*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d per-op datasets left behind: %v", len(left), left[:min(len(left), 3)])
	}
}

// TestSLOGateFailsWhenTightened demonstrates the regression gate's teeth:
// the same healthy run that passes default budgets must fail when the
// admission budget is artificially tightened below the floor.
func TestSLOGateFailsWhenTightened(t *testing.T) {
	c := startServer(t, 64)
	world := buildTestWorld(t)
	spec, _ := SpecByName("T1")

	tight := spec.SLO
	tight.AdmitP99MS = 0.000001 // one nanosecond: unmeetable
	res, err := RunWorkload(context.Background(), c, world, spec, RunConfig{
		Duration: 500 * time.Millisecond, Workers: 2, QPS: 40, Seed: 3, SLO: &tight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || len(res.Violations) == 0 {
		t.Fatalf("tightened budget must fail the gate: %+v", res)
	}
	found := false
	for _, v := range res.Violations {
		if v.Budget == "admit_p99_ms" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an admit_p99_ms violation, got %+v", res.Violations)
	}
}

// TestRunWorkloadInterrupted: cancelling the run context mid-flight (the
// SIGTERM drain path) stops arrivals promptly and still returns an
// accounted partial result.
func TestRunWorkloadInterrupted(t *testing.T) {
	c := startServer(t, 64)
	world := buildTestWorld(t)
	spec, _ := SpecByName("T5")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunWorkload(ctx, c, world, spec, RunConfig{Duration: 30 * time.Second, Workers: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("interrupted run took %v to unwind", elapsed)
	}
	if res.Ops+res.Interrupted == 0 {
		t.Fatal("interrupted run recorded nothing")
	}
}

// TestParsePrometheus: scalar samples parse, labelled and comment lines
// are skipped.
func TestParsePrometheus(t *testing.T) {
	m := ParsePrometheus(`# HELP fpm_jobs_queued Jobs waiting.
# TYPE fpm_jobs_queued gauge
fpm_jobs_queued 3
fpm_worker_tasks_total{worker="0"} 7
fpm_run_seconds 1.25

garbage line without value`)
	if m["fpm_jobs_queued"] != 3 || m["fpm_run_seconds"] != 1.25 {
		t.Fatalf("ParsePrometheus = %+v", m)
	}
	if _, ok := m[`fpm_worker_tasks_total{worker="0"}`]; ok {
		t.Fatal("labelled samples must be skipped")
	}
}
