package serve

// The serve gates: short, workload-shaped request streams driven over
// loopback HTTP against the production wiring (NewInstance), each checked
// against a latency and error budget. CI gates on them in a step without
// -race, where the latency budgets mean what they say:
//
//	.github/run-selected.sh 'TestServeGate' ./internal/serve/
//
// The serve race step runs them too, for their concurrency.
//
// The gates are:
//   - (a) T1/T3/T4/T6-shaped streams within their budgets, with every hot
//     answer equal to a direct fpm.Mine count (TestServeGateStreams);
//   - (b) a hot-key stream's e2e p99 with caches on strictly below the same
//     stream on a cache-off twin (TestServeGateCacheCompare);
//   - (c) the server's fpm_job_e2e_seconds on /metrics agreeing with the
//     client's recording of the same job timestamps (TestServeGateStreams);
//   - (d) after a kill -9 and restart, the restored hot key's p99 beating
//     the cold-identity floor (TestServeKillRestartRecovery).
//
// Every gate also has a subtest that injects the fault the gate exists to
// catch and requires the gate to fail: a gate that cannot fail is not a
// gate.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpm"
	"fpm/internal/hdr"
	"fpm/internal/jobs"
)

// gateWorld is the corpus set the streams mine: three Quest datasets
// spanning the job-size spectrum.
type gateWorld struct {
	dir string
	// small mines in about a millisecond, so queue and admission overhead
	// dominate T1; medium is the T3 hot key; slow runs long enough for
	// T4's cancellations to land mid-mine rather than in the queue.
	small, medium, slow          string
	smallSup, mediumSup, slowSup int
}

func newGateWorld(t *testing.T) gateWorld {
	t.Helper()
	dir := t.TempDir()
	w := gateWorld{
		dir:      dir,
		small:    filepath.Join(dir, "small.dat"),
		medium:   filepath.Join(dir, "medium.dat"),
		slow:     filepath.Join(dir, "slow.dat"),
		smallSup: 5, mediumSup: 12, slowSup: 6,
	}
	for _, g := range []struct {
		path string
		cfg  fpm.QuestConfig
	}{
		{w.small, fpm.QuestConfig{Transactions: 600, AvgLen: 6, AvgPatternLen: 3, Items: 200, Patterns: 400, Seed: 1}},
		{w.medium, fpm.QuestConfig{Transactions: 4000, AvgLen: 10, AvgPatternLen: 4, Items: 400, Patterns: 800, Seed: 2}},
		{w.slow, fpm.QuestConfig{Transactions: 12000, AvgLen: 14, AvgPatternLen: 6, Items: 500, Patterns: 1000, Seed: 3}},
	} {
		if err := fpm.WriteFIMIFile(g.path, fpm.GenerateQuest(g.cfg)); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// directCount is the answer a job on (path, algo, minsup) must report.
func directCount(t *testing.T, path string, algo fpm.Algorithm, minsup int) int {
	t.Helper()
	db, err := fpm.ReadFIMIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := fpm.Mine(db, algo, fpm.Applicable(algo), minsup)
	if err != nil {
		t.Fatal(err)
	}
	return len(sets)
}

// coldDataset writes a freshly seeded small corpus: a new input identity,
// so neither cache can answer a job on it.
func coldDataset(t *testing.T, dir string, rng *rand.Rand) string {
	t.Helper()
	f, err := os.CreateTemp(dir, "cold-*.dat")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	db := fpm.GenerateQuest(fpm.QuestConfig{
		Transactions: 500 + rng.Intn(700), AvgLen: 6, AvgPatternLen: 3,
		Items: 200, Patterns: 400, Seed: rng.Int63(),
	})
	if err := fpm.WriteFIMIFile(f.Name(), db); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// gateOp is one request of a stream.
type gateOp struct {
	req jobs.JobRequest
	// cancel > 0 DELETEs the job this long after admission.
	cancel time.Duration
	// want > 0 is the itemset count a done job must report; 0 leaves the
	// answer unchecked.
	want int
}

// gateStream is a workload-shaped request stream.
type gateStream struct {
	workers, ops int
	// qps > 0 makes the stream open-loop: op i arrives at start + i/qps
	// and its e2e latency counts from that scheduled arrival, so time an
	// op waits for a free client counts against the server.
	qps  float64
	seed int64
	// op builds the stream's i-th request.
	op func(i int, rng *rand.Rand) gateOp
}

// gateResult is what a stream observed.
type gateResult struct {
	admit, e2e hdr.Hist
	// spans are the terminal jobs' Finished − Submitted, the value the
	// server records into fpm_job_e2e_seconds.
	spans []int64
	// cancelled counts cancelled jobs and jobs failed on their timeout_ms
	// deadline; failed counts every other failure.
	ops, done, failed, cancelled, rejected, dropped, cacheServed int
	// wrong lists done answers that disagree with a direct mine.
	wrong []string
}

// runGateStream drives s against the instance behind url and store.
// Transport errors fail the test and count against the budget: before
// admission as failures, after it as dropped results.
func runGateStream(t *testing.T, url string, store *jobs.Store, s gateStream) *gateResult {
	t.Helper()
	r := &gateResult{}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed + int64(w)*7919))
			for i := next.Add(1) - 1; i < int64(s.ops); i = next.Add(1) - 1 {
				op := s.op(int(i), rng)
				arrival := time.Now()
				if s.qps > 0 {
					arrival = start.Add(time.Duration(float64(i) / s.qps * float64(time.Second)))
					time.Sleep(time.Until(arrival))
				}
				sent := time.Now()
				job, code, err := submitJob(url, op.req)
				admit := time.Since(sent)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				r.ops++
				r.admit.Record(admit.Nanoseconds())
				if code != http.StatusAccepted {
					if code == http.StatusTooManyRequests {
						r.rejected++
					} else {
						r.failed++
					}
					mu.Unlock()
					continue
				}
				r.dropped++ // until the job is seen terminal
				mu.Unlock()
				if op.cancel > 0 {
					time.Sleep(op.cancel)
					deleteJob(url, job.ID)
				}
				final, err := awaitTerminal(store, job.ID)
				e2e := time.Since(arrival)
				if err != nil {
					t.Error(err)
					continue
				}

				mu.Lock()
				r.dropped--
				r.e2e.Record(e2e.Nanoseconds())
				r.spans = append(r.spans, final.Finished.Sub(final.Submitted).Nanoseconds())
				switch {
				case final.State == "done":
					r.done++
					if final.ServedFromCache {
						r.cacheServed++
					}
					if op.want > 0 && final.Itemsets != op.want {
						r.wrong = append(r.wrong, fmt.Sprintf("job %d (%s@%d) reported %d itemsets, direct mine has %d",
							job.ID, op.req.Algo, op.req.MinSupport, final.Itemsets, op.want))
					}
				case final.State == "cancelled", strings.Contains(final.Error, "deadline"):
					r.cancelled++
				default:
					r.failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return r
}

// gateBudget is one stream's budget. Every budget also demands zero
// unexpected failures, zero dropped results, zero wrong answers, at
// least one op, and at most half of all submissions rejected with 429.
type gateBudget struct {
	admitP99, e2eP99 time.Duration
	// minCancelled fails a cancellation stream that never cancelled.
	minCancelled int
	// coldOnly fails a stream of fresh input identities that the result
	// cache answered.
	coldOnly bool
}

// overBudget lists every way r breaks b.
func overBudget(r *gateResult, b gateBudget) []string {
	var v []string
	if p := time.Duration(r.admit.Quantile(0.99)); p > b.admitP99 {
		v = append(v, fmt.Sprintf("admit p99 %v > budget %v", p, b.admitP99))
	}
	if p := time.Duration(r.e2e.Quantile(0.99)); p > b.e2eP99 {
		v = append(v, fmt.Sprintf("e2e p99 %v > budget %v", p, b.e2eP99))
	}
	if r.ops == 0 {
		v = append(v, "no operations: the gate measured nothing")
	}
	if r.failed > 0 {
		v = append(v, fmt.Sprintf("%d of %d jobs failed unexpectedly", r.failed, r.ops))
	}
	if r.dropped > 0 {
		v = append(v, fmt.Sprintf("%d admitted jobs never reached a terminal state", r.dropped))
	}
	if 2*r.rejected > r.ops {
		v = append(v, fmt.Sprintf("%d of %d submissions rejected with 429", r.rejected, r.ops))
	}
	if r.cancelled < b.minCancelled {
		v = append(v, fmt.Sprintf("cancelled %d jobs, want at least %d", r.cancelled, b.minCancelled))
	}
	if b.coldOnly && r.cacheServed > 0 {
		v = append(v, fmt.Sprintf("%d fresh-identity jobs were served from cache", r.cacheServed))
	}
	return append(v, r.wrong...)
}

// p99Below fails unless fast's p99 is strictly below slow's.
func p99Below(fast, slow *hdr.Hist) error {
	f, s := time.Duration(fast.Quantile(0.99)), time.Duration(slow.Quantile(0.99))
	if f >= s {
		return fmt.Errorf("e2e p99 %v is not below %v", f, s)
	}
	return nil
}

// cacheGate is gate (b): the cached stream must have been served from
// cache and beat the cache-off stream's e2e p99.
func cacheGate(cached, off *gateResult) error {
	if cached.cacheServed == 0 {
		return errors.New("the cached stream was never served from cache")
	}
	return p99Below(&cached.e2e, &off.e2e)
}

// scrapeMismatch is gate (c): the fpm_job_e2e_seconds family in the
// /metrics text must count exactly the client's spans, and its p99 gauge
// must lie within 1/32 of the client's p99. Both sides fold the same
// int64 into the same histogram geometry, so agreement is an identity
// check on the whole export path, not a statistical hope.
func scrapeMismatch(metrics string, spans []int64) error {
	var client hdr.Hist
	for _, s := range spans {
		client.Record(s)
	}
	sample := func(name string) (float64, error) {
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return strconv.ParseFloat(v, 64)
			}
		}
		return 0, fmt.Errorf("%s missing from /metrics", name)
	}
	count, err := sample("fpm_job_e2e_seconds_count")
	if err != nil {
		return err
	}
	if uint64(count) != client.Count() {
		return fmt.Errorf("server counted %v terminal jobs, client %d", count, client.Count())
	}
	p99, err := sample("fpm_job_e2e_seconds_p99_seconds")
	if err != nil {
		return err
	}
	want := float64(client.Quantile(0.99)) / 1e9
	if rel := math.Abs(p99-want) / want; rel > 1.0/32 {
		return fmt.Errorf("server e2e p99 %gs vs client %gs: relative error %.4f > 1/32", p99, want, rel)
	}
	return nil
}

// gateInstance hosts one instance the way `fpm serve` does, with four
// runners and a 64-job queue.
func gateInstance(t *testing.T, cfg Config) (*Instance, string) {
	t.Helper()
	cfg.QueueCap, cfg.MaxConcurrent = 64, 4
	inst := NewInstance(cfg)
	ts := httptest.NewServer(inst.Server.Handler())
	t.Cleanup(func() {
		inst.Store.Shutdown()
		ts.Close()
	})
	return inst, ts.URL
}

// TestServeGateStreams is gates (a) and (c): T1/T3/T4/T6-shaped streams
// against one instance, each within its budget, and then a final /metrics
// scrape that must agree with the client's view of every job the streams
// ran.
func TestServeGateStreams(t *testing.T) {
	w := newGateWorld(t)
	inst, url := gateInstance(t, Config{})
	smallWant := directCount(t, w.small, "lcm", w.smallSup)
	hotWant := directCount(t, w.medium, "lcm", w.mediumSup)
	rng := rand.New(rand.NewSource(6))
	cold := make([]string, 24) // one fresh identity per T6 op
	for i := range cold {
		cold[i] = coldDataset(t, w.dir, rng)
	}

	t1 := gateStream{ // uniform small jobs: admission and scheduling overhead
		workers: 2, ops: 40, qps: 50, seed: 1,
		op: func(int, *rand.Rand) gateOp {
			return gateOp{req: jobs.JobRequest{Path: w.small, Algo: "lcm", MinSupport: w.smallSup, Workers: 1}, want: smallWant}
		},
	}
	tightened := gateBudget{admitP99: time.Nanosecond, e2eP99: 5 * time.Second}
	admitViolation := func(v []string) bool {
		for _, s := range v {
			if strings.HasPrefix(s, "admit p99 ") {
				return true
			}
		}
		return false
	}

	results := map[string]*gateResult{}
	for _, c := range []struct {
		name   string
		stream gateStream
		budget gateBudget
	}{
		{"T1", t1, gateBudget{admitP99: 250 * time.Millisecond, e2eP99: 5 * time.Second}},
		{"T3", gateStream{ // 90% one hot request, 10% cold variants
			workers: 4, ops: 200, seed: 3,
			op: func(_ int, rng *rand.Rand) gateOp {
				if rng.Float64() < 0.9 {
					return gateOp{req: jobs.JobRequest{Path: w.medium, Algo: "lcm", MinSupport: w.mediumSup, Workers: 1}, want: hotWant}
				}
				return gateOp{req: jobs.JobRequest{Path: w.medium, Algo: "eclat", MinSupport: w.mediumSup + rng.Intn(20), Workers: 1}}
			},
		}, gateBudget{admitP99: 250 * time.Millisecond, e2eP99: 20 * time.Second}},
		{"T4", gateStream{ // slow jobs: half DELETEd mid-flight, a quarter on a tiny timeout
			workers: 4, ops: 24, seed: 4,
			op: func(_ int, rng *rand.Rand) gateOp {
				op := gateOp{req: jobs.JobRequest{Path: w.slow, Algo: "lcm", MinSupport: w.slowSup, Workers: 1}}
				switch p := rng.Float64(); {
				case p < 0.5:
					op.cancel = time.Duration(rng.Intn(15)+1) * time.Millisecond
				case p < 0.75:
					op.req.TimeoutMS = int64(rng.Intn(15) + 5)
				default:
					op.req.MinSupport = w.slowSup * 4 // completes quickly
				}
				return op
			},
		}, gateBudget{admitP99: 250 * time.Millisecond, e2eP99: 30 * time.Second, minCancelled: 1}},
		{"T6", gateStream{ // a fresh input identity per op: both caches miss
			workers: 4, ops: len(cold), seed: 6,
			op: func(i int, rng *rand.Rand) gateOp {
				algo := []string{"lcm", "eclat", "fpgrowth"}[rng.Intn(3)]
				return gateOp{req: jobs.JobRequest{Path: cold[i], Algo: algo, MinSupport: w.smallSup + rng.Intn(4), Workers: 1}}
			},
		}, gateBudget{admitP99: 250 * time.Millisecond, e2eP99: 20 * time.Second, coldOnly: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := runGateStream(t, url, inst.Store, c.stream)
			results[c.name] = r
			if v := overBudget(r, c.budget); len(v) > 0 {
				t.Fatalf("%s over budget (%d ops, %d done, %d cancelled, %d cache-served):\n%s",
					c.name, r.ops, r.done, r.cancelled, r.cacheServed, strings.Join(v, "\n"))
			}
		})
	}

	t.Run("tightened-admit-budget-fails", func(t *testing.T) {
		r := results["T1"]
		if r == nil {
			t.Skip("the T1 stream did not run")
		}
		if v := overBudget(r, tightened); !admitViolation(v) {
			t.Fatalf("a 1 ns admit budget passed the gate: %q", v)
		}
	})
	// A fresh short T1 run judged from the start under the unmeetable
	// budget, so the whole stream-then-judge path fails, not only the
	// budget check on an earlier recording.
	t.Run("tightened-run-fails", func(t *testing.T) {
		s := t1
		s.ops, s.seed = 10, 11
		r := runGateStream(t, url, inst.Store, s)
		results["T1-tightened"] = r
		if v := overBudget(r, tightened); !admitViolation(v) {
			t.Fatalf("a 1 ns admit budget passed the gate: %q", v)
		}
	})

	var spans []int64
	for _, r := range results {
		spans = append(spans, r.spans...)
	}
	metrics := func(t *testing.T) string {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	t.Run("scrape-final", func(t *testing.T) {
		if err := scrapeMismatch(metrics(t), spans); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("shifted-client-histogram-fails", func(t *testing.T) {
		shifted := make([]int64, len(spans))
		for i, s := range spans {
			shifted[i] = s + s/10
		}
		if err := scrapeMismatch(metrics(t), shifted); err == nil {
			t.Fatal("a client histogram shifted by +10% passed the scrape check")
		}
	})
}

// TestServeGateCacheCompare is gate (b): the same hot-key stream against
// a cache-off twin and a cached instance. Each instance first mines the
// hot request once, unmeasured, so the cached p99 measures hits rather
// than the cold start both instances share.
func TestServeGateCacheCompare(t *testing.T) {
	w := newGateWorld(t)
	hotWant := directCount(t, w.medium, "lcm", w.mediumSup)
	hot := jobs.JobRequest{Path: w.medium, Algo: "lcm", MinSupport: w.mediumSup, Workers: 1}
	stream := gateStream{
		workers: 4, ops: 40, seed: 3,
		op: func(int, *rand.Rand) gateOp { return gateOp{req: hot, want: hotWant} },
	}
	run := func(cfg Config) *gateResult {
		inst, url := gateInstance(t, cfg)
		warm, code := postJob(t, url, hot)
		if code != http.StatusAccepted {
			t.Fatalf("warm-up submit = %d", code)
		}
		waitTerminal(t, inst.Store, warm.ID)
		r := runGateStream(t, url, inst.Store, stream)
		if v := overBudget(r, gateBudget{admitP99: 250 * time.Millisecond, e2eP99: 20 * time.Second}); len(v) > 0 {
			t.Fatalf("hot-key stream over budget:\n%s", strings.Join(v, "\n"))
		}
		return r
	}
	off := run(Config{DisableDatasetCache: true, DisableResultCache: true})
	cached := run(Config{})

	t.Run("cached-beats-cache-off", func(t *testing.T) {
		if err := cacheGate(cached, off); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("swapped-fails", func(t *testing.T) {
		if err := cacheGate(off, cached); err == nil {
			t.Fatal("the cache-off stream passed as the cached one")
		}
		if err := p99Below(&off.e2e, &cached.e2e); err == nil {
			t.Fatal("the cache-off p99 beat the cached p99")
		}
	})
}
