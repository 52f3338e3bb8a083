package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fpm"
	"fpm/internal/durable"
	"fpm/internal/jobs"
	"fpm/internal/servecache"
)

// testDataset writes a small Quest corpus and returns its path.
func testDataset(t *testing.T, tx int, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "storm.dat")
	db := fpm.GenerateQuest(fpm.QuestConfig{
		Transactions: tx, AvgLen: 8, AvgPatternLen: 4, Items: 200, Patterns: 400, Seed: seed,
	})
	if err := fpm.WriteFIMIFile(path, db); err != nil {
		t.Fatal(err)
	}
	return path
}

func postJob(t *testing.T, url string, req jobs.JobRequest) (jobs.Job, int) {
	t.Helper()
	job, code, err := submitJob(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return job, code
}

// submitJob is postJob for goroutines other than the test's own, which
// must not call t.Fatal.
func submitJob(url string, req jobs.JobRequest) (jobs.Job, int, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return jobs.Job{}, 0, err
	}
	defer resp.Body.Close()
	var job jobs.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			return jobs.Job{}, 0, fmt.Errorf("decode admitted job: %w", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return job, resp.StatusCode, nil
}

// deleteJob cancels job id over HTTP; errors are a legal race outcome.
func deleteJob(url string, id int) {
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", url, id), nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
}

// waitNoGoroutineGrowth polls until the goroutine count returns to its
// pre-storm level (+2 slack for runtime/httptest helpers).
func waitNoGoroutineGrowth(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // flush idle HTTP keep-alive conns promptly
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after storm", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeSubmitCancelScrapeStorm is the serve-layer race test: N clients
// concurrently submit, poll, and cancel real mining jobs over HTTP against
// a 4-runner pool with deliberately tiny serving caches (constant eviction
// churn, mixed hot/cold keys), while scrapers hammer /metrics and
// /progress. Run in CI's race matrix. Every admitted job must reach a
// terminal state (zero dropped results), the job-state counters must
// balance, and tearing the server down afterwards must leave no goroutines
// behind.
func TestServeSubmitCancelScrapeStorm(t *testing.T) {
	// Two hot datasets (cache-friendly) plus cold ones that thrash the
	// small dataset cache.
	paths := []string{testDataset(t, 3000, 1), testDataset(t, 2500, 2),
		testDataset(t, 2000, 3), testDataset(t, 1500, 4)}
	before := runtime.NumGoroutine()

	inst := NewInstance(Config{
		QueueCap:          32,
		MaxConcurrent:     4,
		DatasetCacheBytes: 512 << 10, // ~a couple of parsed DBs: forces eviction
		ResultCacheBytes:  8 << 20,   // roomy enough that hot listings stick
	})
	srv, store := inst.Server, inst.Store
	ts := httptest.NewServer(srv.Handler())

	const (
		clients    = 8
		opsPerSide = 12
	)
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ { // concurrent scrapers
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/progress")
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}

	var mu sync.Mutex
	var admitted []int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for op := 0; op < opsPerSide; op++ {
				p := paths[0] // hot key two thirds of the time
				if rng.Intn(3) == 0 {
					p = paths[1+rng.Intn(len(paths)-1)]
				}
				req := jobs.JobRequest{Path: p, Algo: "lcm", MinSupport: 4, Workers: 1}
				if rng.Intn(4) == 0 {
					req.TimeoutMS = int64(rng.Intn(10) + 1)
				}
				job, code := postJob(t, ts.URL, req)
				if code == http.StatusTooManyRequests {
					continue // backpressure is a legal storm outcome
				}
				if code != http.StatusAccepted {
					t.Errorf("client %d: POST /jobs = %d", id, code)
					return
				}
				mu.Lock()
				admitted = append(admitted, job.ID)
				mu.Unlock()
				if rng.Intn(2) == 0 { // cancel half mid-flight
					time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
					deleteJob(ts.URL, job.ID)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()

	// Drain: every admitted job must reach a terminal state.
	store.Close()
	terminal := map[string]bool{"done": true, "failed": true, "cancelled": true}
	stateOf := func(id int) string {
		j, ok := store.Get(id)
		if !ok {
			t.Fatalf("admitted job %d vanished", id)
		}
		return j.State
	}
	for _, id := range admitted {
		if s := stateOf(id); !terminal[s] {
			t.Errorf("job %d stuck in state %q after drain", id, s)
		}
	}

	// The incremental counters must agree with the terminal census.
	js := store.Stats()
	if js.Queued != 0 || js.Running != 0 {
		t.Errorf("post-drain gauges: %+v", js)
	}
	if got := js.Done + js.Failed + js.Cancelled; got != uint64(len(admitted)) {
		t.Errorf("terminal counters sum to %d, want %d admitted", got, len(admitted))
	}

	// The hot key must actually have exercised the caches mid-storm.
	cs := inst.Caches.Stats()
	if cs.Dataset.Hits == 0 {
		t.Errorf("storm never hit the dataset cache: %+v", cs.Dataset)
	}
	if cs.Result.HitsExact == 0 && js.CacheServed == 0 {
		t.Errorf("storm never served from the result cache: %+v (store %+v)", cs.Result, js)
	}

	ts.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineGrowth(t, before)
}

// TestServeDrainMidStorm pins the T4 acceptance shape: a cancellation
// storm is in full flight when the server is told to shut down (the
// SIGTERM path minus the signal); the drain must cancel the job in
// flight, mark queued jobs cancelled, unwind cleanly, and leak nothing.
func TestServeDrainMidStorm(t *testing.T) {
	path := testDataset(t, 8000, 2)
	before := runtime.NumGoroutine()

	inst := NewInstance(Config{QueueCap: 16})
	srv, store := inst.Server, inst.Store
	ts := httptest.NewServer(srv.Handler())

	// Flood with slow jobs, cancelling some, until the drain signal.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				job, code := postJob(t, ts.URL, jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 3, Workers: 1})
				if code == http.StatusAccepted && rng.Intn(2) == 0 {
					deleteJob(ts.URL, job.ID)
				}
				time.Sleep(time.Millisecond)
			}
		}(c)
	}
	time.Sleep(100 * time.Millisecond) // let the storm build a queue

	// Drain exactly as runServe does on SIGTERM: store first, then server.
	done := make(chan struct{})
	go func() {
		defer close(done)
		store.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("store.Shutdown hung mid-storm")
	}
	close(stop)
	wg.Wait()

	js := store.Stats()
	if js.Queued != 0 || js.Running != 0 {
		t.Errorf("post-shutdown gauges: %+v", js)
	}
	for _, j := range store.List() {
		switch j.State {
		case "done", "failed", "cancelled":
		default:
			t.Errorf("job %d left in state %q after shutdown", j.ID, j.State)
		}
	}

	ts.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineGrowth(t, before)
}

// TestMineJobValidation: a bad min_support fails fast without touching
// the filesystem.
func TestMineJobValidation(t *testing.T) {
	if _, err := mineWithCaches(context.Background(), jobs.JobRequest{Path: "nope", Algo: "lcm"}, fpm.NewMetricsRecorder(), nil, false); err == nil {
		t.Fatal("min_support 0 must be rejected")
	}
}

// TestServeRejectsBadRequestAtSubmit: a request the job rules reject — an
// unknown kernel, a pattern list that does not parse, min_support 0 — is
// answered 400 by POST /jobs before the store journals or queues it, so
// it leaves no job record and no journal line.
func TestServeRejectsBadRequestAtSubmit(t *testing.T) {
	path := testDataset(t, 200, 31)
	stateDir := t.TempDir()
	inst := NewInstance(durableConfig(stateDir))
	if inst.DurabilityErr != nil {
		t.Fatal(inst.DurabilityErr)
	}
	ts := httptest.NewServer(inst.Server.Handler())
	defer ts.Close()
	for _, req := range []jobs.JobRequest{
		{Path: path, Algo: "hmine", MinSupport: 5, Workers: 1},
		{Path: path, Algo: "lcm", Patterns: "lex,bogus", MinSupport: 5, Workers: 1},
		{Path: path, Algo: "lcm", MinSupport: 0, Workers: 1},
	} {
		if _, code := postJob(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("POST %+v: status %d, want 400", req, code)
		}
	}
	if got := inst.Store.List(); len(got) != 0 {
		t.Fatalf("rejected requests left job records: %+v", got)
	}
	if st := inst.Store.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected requests counted as submitted: %+v", st)
	}
	closeInstance(t, inst)
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(stateDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("hmine")) || bytes.Contains(data, []byte("bogus")) {
			t.Fatalf("rejected request reached %s:\n%s", e.Name(), data)
		}
	}
}

// waitTerminal polls until job id leaves the queue/runner. The deadline
// only catches a hung job: under -race on two cores the requeue test's
// 9000-transaction mines take over 10 s.
func waitTerminal(t *testing.T, store *jobs.Store, id int) jobs.Job {
	t.Helper()
	j, err := awaitTerminal(store, id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// awaitTerminal is waitTerminal for goroutines other than the test's own.
func awaitTerminal(store *jobs.Store, id int) (jobs.Job, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := store.Get(id)
		if !ok {
			return j, fmt.Errorf("job %d vanished", id)
		}
		switch j.State {
		case "done", "failed", "cancelled":
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %d stuck in %q", id, j.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeResultCacheEndToEnd drives the full serving stack: the first
// job mines, the repeat is served from the result cache (itemset count
// identical, served_from_cache set, mine time collapsed), a
// higher-minsup query is answered by subsumption with the exact direct
// answer, and every served job keeps coherent timestamps — queue-wait
// and mine-time attribution is what latency splits are built on.
func TestServeResultCacheEndToEnd(t *testing.T) {
	path := testDataset(t, 4000, 9)
	inst := NewInstance(Config{QueueCap: 8, MaxConcurrent: 2})
	defer inst.Store.Shutdown()

	submit := func(minsup int) jobs.Job {
		t.Helper()
		job, err := inst.Store.Submit(jobs.JobRequest{Path: path, Algo: "eclat", MinSupport: minsup, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		j := waitTerminal(t, inst.Store, job.ID)
		if j.State != "done" {
			t.Fatalf("job %d: %+v", job.ID, j)
		}
		if j.Started.Before(j.Submitted) || j.Finished.Before(j.Started) {
			t.Fatalf("job %d timestamps incoherent: %+v", job.ID, j)
		}
		return j
	}

	first := submit(5)
	if first.ServedFromCache {
		t.Fatal("cold mine claimed to be cache-served")
	}
	repeat := submit(5)
	if !repeat.ServedFromCache {
		t.Fatal("repeat job was not served from the result cache")
	}
	if repeat.Itemsets != first.Itemsets {
		t.Fatalf("cached answer has %d itemsets, fresh mine had %d", repeat.Itemsets, first.Itemsets)
	}
	// A cache-served job's mine time is a lookup, not a mining run: it must
	// be far below the real mine's (and its stats snapshot stays empty —
	// nothing was counted because nothing ran).
	mineTime := func(j jobs.Job) time.Duration { return j.Finished.Sub(j.Started) }
	if mt, orig := mineTime(repeat), mineTime(first); orig > 10*time.Millisecond && mt > orig/2 {
		t.Errorf("cache-served mine time %v not collapsed vs fresh %v", mt, orig)
	}
	if repeat.Stats != nil && repeat.Stats.Nodes != 0 {
		t.Errorf("cache-served job expanded %d nodes; the mine was supposed to be skipped", repeat.Stats.Nodes)
	}

	// Higher minsup: answered by subsumption, and identical to mining it.
	subsumed := submit(9)
	if !subsumed.ServedFromCache {
		t.Fatal("higher-minsup query was not subsumed by the cached listing")
	}
	db, err := fpm.ReadFIMIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fpm.Mine(db, "eclat", fpm.Applicable("eclat"), 9)
	if err != nil {
		t.Fatal(err)
	}
	if subsumed.Itemsets != len(direct) {
		t.Fatalf("subsumed answer has %d itemsets, direct mine has %d", subsumed.Itemsets, len(direct))
	}

	cs := inst.Caches.Stats()
	if cs.Result.HitsExact != 1 || cs.Result.HitsSubsumed != 1 {
		t.Fatalf("cache stats = %+v, want 1 exact + 1 subsumed hit", cs.Result)
	}
	if got := inst.Store.Stats().CacheServed; got != 2 {
		t.Fatalf("store counted %d cache-served jobs, want 2", got)
	}
}

// With the result cache disabled, a repeat job mines again and is never
// marked served_from_cache — the before/after lever the cache-compare
// serve gate (TestServeGateCacheCompare) relies on.
func TestServeCacheDisabled(t *testing.T) {
	path := testDataset(t, 1500, 10)
	inst := NewInstance(Config{QueueCap: 8, DisableResultCache: true, DisableDatasetCache: true})
	defer inst.Store.Shutdown()
	for i := 0; i < 2; i++ {
		job, err := inst.Store.Submit(jobs.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j := waitTerminal(t, inst.Store, job.ID); j.State != "done" || j.ServedFromCache {
			t.Fatalf("cache-disabled job %d: %+v", i, j)
		}
	}
	if got := inst.Store.Stats().CacheServed; got != 0 {
		t.Fatalf("cache-disabled store counted %d cache-served jobs", got)
	}
	cs := inst.Caches.Stats()
	if cs.Dataset.Hits != 0 || cs.Result.HitsExact != 0 {
		t.Fatalf("disabled caches recorded hits: %+v", cs)
	}
}

// TestServeUnknownKernelBeforeCache: a result-cache entry under a name
// outside the kernel table — what a snapshot written before a kernel was
// removed restores — does not answer that name; the job fails as it does
// uncached, on its first attempt.
func TestServeUnknownKernelBeforeCache(t *testing.T) {
	path := testDataset(t, 500, 12)
	inst := NewInstance(Config{QueueCap: 8})
	defer inst.Store.Shutdown()
	db, err := fpm.ReadFIMIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := fpm.Mine(db, fpm.LCM, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := durable.FileIdentity(path, false)
	if err != nil {
		t.Fatal(err)
	}
	inst.Caches.Results.Insert(servecache.ResultKey{ID: id, Algo: "hmine", Patterns: "0"}, 5, sets)

	job, err := inst.Store.Submit(jobs.JobRequest{Path: path, Algo: "hmine", MinSupport: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, inst.Store, job.ID)
	if j.State != "failed" || j.ServedFromCache || !strings.Contains(j.Error, `unknown algorithm "hmine"`) {
		t.Fatalf("job under a removed kernel name: %+v", j)
	}
	if j.Retries != 0 {
		t.Fatalf("unknown kernel retried %d times", j.Retries)
	}
}
