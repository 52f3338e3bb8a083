package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpm"
	"fpm/internal/serve"
)

// Load shape of both serve workloads: two closed-loop clients against two
// runners, every job mined sequentially.
const (
	serveClients = 2
	serveRunners = 2
	// writeShare of ops submit a key never seen before in the run.
	writeShare = 0.1
	// maxServeOpsPerSec is the op rate the write-key pool is sized for:
	// it holds twice the writes of a run at this rate, which is about
	// three times serve-hot's rate on a 2-vCPU x86-64 VM (1,100 ops/s).
	// A run that exhausts the pool fails its remaining writes.
	maxServeOpsPerSec = 3000
	// Supports of the hot request on medium.dat and of the writes on the
	// small datasets: T3's and T1's.
	mediumSup, smallSup = 12, 5
	// resultCacheBytes caps serve-hot's result cache so that it fills in
	// the first seconds of a window and then evicts: from there on the
	// heap, the persister's snapshot and its encode time stay the same
	// size for the rest of the window instead of growing with it.
	resultCacheBytes = 8 << 20
)

// writeKey is one never-repeated write request.
type writeKey struct {
	dataset  int
	algo     fpm.Algorithm
	patterns string
}

type serveSession struct {
	hot  bool
	seed int64
	inst *serve.Instance
	base string

	hotReq  jobRequest
	hotWant int
	small   []string
	want    []int // itemset count of each small dataset at smallSup
	keys    []writeKey
}

var patternNames = map[fpm.Pattern]string{
	fpm.Lex: "lex", fpm.Adapt: "adapt", fpm.Aggregate: "aggregate", fpm.Compact: "compact",
	fpm.PrefetchPtr: "prefetchptr", fpm.Tile: "tile", fpm.Prefetch: "prefetch", fpm.SIMD: "simd",
}

// patternSubsets lists every subset of the kernel's applicable patterns
// as a job-request pattern string ("none" for the empty set): 32 for LCM,
// 4 for Eclat, 64 for FP-Growth, so about 100 keys per dataset.
func patternSubsets(k fpm.Algorithm) []string {
	ps := fpm.Applicable(k).Patterns()
	var out []string
	for mask := 0; mask < 1<<len(ps); mask++ {
		var names []string
		for i, p := range ps {
			if mask&(1<<i) != 0 {
				names = append(names, patternNames[p])
			}
		}
		if len(names) == 0 {
			out = append(out, "none")
		} else {
			out = append(out, strings.Join(names, ","))
		}
	}
	return out
}

// setupServe builds the serve world — T3's medium.dat (the hot request's
// input, generator seed fixed so serve-cold's mining time does not move
// with the run seed) and a pool of small datasets drawn from the seed for
// the writes — mines their reference counts, starts a durable instance
// and warms it with the hot request.
func setupServe(cfg config, dir string, hot bool) (session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mediumTx, smallTx := 4000, 600
	if cfg.tiny {
		mediumTx, smallTx = 500, 150
	}
	s := &serveSession{hot: hot, seed: cfg.seed}
	medium := filepath.Join(dir, "medium.dat")
	var err error
	if s.hotWant, err = writeAndCount(medium, fpm.QuestConfig{Transactions: mediumTx, AvgLen: 10,
		AvgPatternLen: 4, Items: 400, Patterns: 800, Seed: 2}, mediumSup); err != nil {
		return nil, err
	}
	s.hotReq = jobRequest{Path: medium, Algo: string(fpm.LCM), MinSupport: mediumSup, Workers: 1}

	keysPerDataset := 0
	for _, k := range denseKernels {
		keysPerDataset += len(patternSubsets(k))
	}
	writes := writeShare * maxServeOpsPerSec * cfg.seconds
	pool := int(2*writes)/keysPerDataset + 1
	rng := rand.New(rand.NewSource(cfg.seed))
	for d := 0; d < pool; d++ {
		path := filepath.Join(dir, fmt.Sprintf("small-%04d.dat", d))
		n, err := writeAndCount(path, fpm.QuestConfig{Transactions: smallTx, AvgLen: 6, AvgPatternLen: 3,
			Items: 200, Patterns: 400, Seed: rng.Int63()}, smallSup)
		if err != nil {
			return nil, err
		}
		s.small = append(s.small, path)
		s.want = append(s.want, n)
		for _, k := range denseKernels {
			for _, ps := range patternSubsets(k) {
				s.keys = append(s.keys, writeKey{dataset: d, algo: k, patterns: ps})
			}
		}
	}
	rng.Shuffle(len(s.keys), func(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] })

	s.inst = serve.NewInstance(serve.Config{
		MaxConcurrent:       serveRunners,
		StateDir:            filepath.Join(dir, "state"),
		ResultCacheBytes:    resultCacheBytes,
		DisableDatasetCache: !hot,
		DisableResultCache:  !hot,
	})
	if s.inst.DurabilityErr != nil {
		s.close()
		return nil, s.inst.DurabilityErr
	}
	addr, err := s.inst.Server.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + addr.String()
	cl := newClient(s.base)
	defer cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if rec, code, err := cl.submit(ctx, s.hotReq); err != nil || code != 202 {
		s.close()
		return nil, fmt.Errorf("warm-up submit: status %d, %v", code, err)
	} else if final, _, err := cl.wait(ctx, rec.ID); err != nil || final.Itemsets != s.hotWant {
		s.close()
		return nil, fmt.Errorf("warm-up: %d itemsets (want %d), %v", final.Itemsets, s.hotWant, err)
	}
	return s, nil
}

// writeAndCount generates a Quest dataset to path and returns the number
// of itemsets untuned LCM finds at sup in the parsed file.
func writeAndCount(path string, qc fpm.QuestConfig, sup int) (int, error) {
	if err := fpm.WriteFIMIFile(path, fpm.GenerateQuest(qc)); err != nil {
		return 0, err
	}
	db, err := fpm.ReadFIMIFile(path)
	if err != nil {
		return 0, err
	}
	sets, err := fpm.Mine(db, fpm.LCM, 0, sup)
	return len(sets), err
}

func (s *serveSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.inst.Close(ctx)
}

// isWrite decides from the seed and the op's index alone whether op i is
// a write, so serve-hot and serve-cold see the same request stream.
func isWrite(seed int64, i int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return float64(x>>11)/(1<<53) < writeShare
}

// serveSample is one op as the client saw it.
type serveSample struct {
	ok, traced               bool
	send, admitted, observed time.Time
	rec                      jobRecord
}

// run drives serveClients closed-loop clients for d (at least one op
// each). Traced windows also scrape /metrics once a second.
func (s *serveSession) run(d time.Duration, traced bool, tr *tracer) (window, error) {
	var w window
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()
	scraper := newClient(s.base)
	defer scraper.close()
	var scrapeMS []float64
	scrape := func() (map[string]float64, error) {
		t0 := time.Now()
		m, err := scraper.scrape(ctx)
		scrapeMS = append(scrapeMS, ms(time.Since(t0)))
		return m, err
	}
	before, err := scrape()
	if err != nil {
		return w, err
	}

	var scrapes []map[string]float64
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		if !traced {
			return
		}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
			}
			if m, err := scrape(); err == nil {
				scrapes = append(scrapes, m)
			}
		}
	}()

	var next, nextWrite atomic.Int64
	var mu sync.Mutex
	var samples []serveSample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		tr.track(2*c, fmt.Sprintf("client %d", c))
		tr.track(2*c+1, fmt.Sprintf("job (client %d)", c))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.base)
			defer cl.close()
			var mine []serveSample
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				i := int(next.Add(1) - 1)
				sm := s.do(ctx, cl, i, &nextWrite, traced && i%2 == 1, &w, &mu)
				if sm.ok && sm.traced {
					tr.add("op", 2*c, i, sm.send, sm.observed)
					tr.add("admit", 2*c, i, sm.send, sm.admitted)
					tr.add("queued", 2*c+1, i, sm.rec.Submitted, sm.rec.Started)
					tr.add("run", 2*c+1, i, sm.rec.Started, sm.rec.Finished)
					tr.add("observe", 2*c+1, i, sm.rec.Finished, sm.observed)
				}
				mine = append(mine, sm)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.busy = time.Since(start)
	close(stopScrape)
	<-scrapeDone
	after, err := scrape()
	if err != nil {
		return w, err
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	resultHits := delta(`fpm_cache_result_hits_total{kind="exact"}`) + delta(`fpm_cache_result_hits_total{kind="subsumed"}`)
	hitRatio := ratio(resultHits, delta("fpm_cache_result_misses_total"))
	if s.hot && hitRatio < 0.85 {
		w.problem("serve-hot result-cache hit ratio %.3f < 0.85", hitRatio)
	}
	if !s.hot && hitRatio != 0 {
		w.problem("serve-cold result-cache hit ratio %.3f, want 0", hitRatio)
	}

	var admit, ingress, queue, runT, observe, early, late []float64
	for _, sm := range samples {
		if !sm.ok {
			continue
		}
		lat := ms(sm.rec.Finished.Sub(sm.send))
		switch off := sm.send.Sub(start); {
		case off < w.busy/10:
			early = append(early, lat)
		case off >= w.busy-w.busy/10:
			late = append(late, lat)
		}
		if !sm.traced {
			w.lat = append(w.lat, lat)
			continue
		}
		w.tracedLat = append(w.tracedLat, lat)
		admit = append(admit, ms(sm.admitted.Sub(sm.send)))
		ingress = append(ingress, ms(sm.rec.Submitted.Sub(sm.send)))
		queue = append(queue, ms(sm.rec.Started.Sub(sm.rec.Submitted)))
		runT = append(runT, ms(sm.rec.Finished.Sub(sm.rec.Started)))
		observe = append(observe, ms(sm.observed.Sub(sm.rec.Finished)))
	}
	if !traced {
		return w, nil
	}

	// Persisted bytes: each snapshot write between two scrapes is counted
	// at the size of the last snapshot the later scrape reports.
	series := append(append([]map[string]float64{before}, scrapes...), after)
	persisted := 0.0
	for i := 1; i < len(series); i++ {
		writes := series[i]["fpm_cache_persist_writes_total"] - series[i-1]["fpm_cache_persist_writes_total"]
		persisted += writes * series[i]["fpm_cache_persist_last_bytes"]
	}
	// Bytes changed are the snapshot's growth over the window: every write
	// rewrites the whole snapshot to persist what the inserts added.
	amplification := 0.0
	if grown := delta("fpm_cache_persist_last_bytes"); grown > 0 {
		amplification = persisted / grown
	}
	drift := 0.0
	if e := median(early); e > 0 {
		drift = median(late) / e
	}
	q := func(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p) }
	w.layers = map[string]Metric{
		"serve.admit_p50_ms":             {q(admit, 0.5), "ms"},
		"serve.admit_p99_ms":             {q(admit, 0.99), "ms"},
		"serve.ingress_p50_ms":           {q(ingress, 0.5), "ms"},
		"telemetry.queue_wait_p50_ms":    {q(queue, 0.5), "ms"},
		"telemetry.queue_wait_p99_ms":    {q(queue, 0.99), "ms"},
		"serve.run_p50_ms":               {q(runT, 0.5), "ms"},
		"serve.run_p99_ms":               {q(runT, 0.99), "ms"},
		"serve.observe_lag_p50_ms":       {q(observe, 0.5), "ms"},
		"telemetry.scrape_p50_ms":        {q(scrapeMS, 0.5), "ms"},
		"serve.p50_drift":                {drift, "ratio"},
		"servecache.result_hit_ratio":    {hitRatio, "ratio"},
		"servecache.dataset_hit_ratio":   {ratio(delta("fpm_cache_dataset_hits_total"), delta("fpm_cache_dataset_misses_total")), "ratio"},
		"servecache.persist_writes":      {delta("fpm_cache_persist_writes_total"), "count"},
		"servecache.snapshot_mib":        {after["fpm_cache_persist_last_bytes"] / (1 << 20), "MiB"},
		"servecache.persist_mib_written": {persisted / (1 << 20), "MiB"},
		"servecache.write_amplification": {amplification, "ratio"},
	}
	return w, nil
}

// do runs op i of the request stream on cl and checks its answer.
func (s *serveSession) do(ctx context.Context, cl *client, i int, nextWrite *atomic.Int64, traced bool, w *window, mu *sync.Mutex) serveSample {
	req, want, write := s.hotReq, s.hotWant, isWrite(s.seed, i)
	fail := func(format string, args ...any) serveSample {
		mu.Lock()
		w.attempted++
		w.fail(format, args...)
		mu.Unlock()
		return serveSample{}
	}
	if write {
		j := int(nextWrite.Add(1) - 1)
		if j >= len(s.keys) {
			return fail("write-key pool of %d exhausted", len(s.keys))
		}
		k := s.keys[j]
		req = jobRequest{Path: s.small[k.dataset], Algo: string(k.algo), Patterns: k.patterns, MinSupport: smallSup, Workers: 1}
		want = s.want[k.dataset]
	}
	// Wall clock only: the server's stamps arrive as wall-clock times.
	send := time.Now().Round(0)
	rec, code, err := cl.submit(ctx, req)
	admitted := time.Now().Round(0)
	if err != nil {
		return fail("submit: %v", err)
	}
	if code != 202 {
		return fail("submit: status %d", code)
	}
	final, observed, err := cl.wait(ctx, rec.ID)
	observed = observed.Round(0)
	switch {
	case err != nil:
		return fail("job %d: %v", rec.ID, err)
	case final.State != "done":
		return fail("job %d: %s %s", rec.ID, final.State, final.Error)
	case final.Itemsets != want:
		return fail("job %d on %s: %d itemsets, want %d", rec.ID, filepath.Base(req.Path), final.Itemsets, want)
	case write && final.ServedFromCache:
		return fail("job %d: write served from cache", rec.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	w.attempted++
	// The four stamps share one clock, so ingress + queue wait + run is
	// finished − send exactly; a record out of order breaks that.
	ingress, queue, run := final.Submitted.Sub(send), final.Started.Sub(final.Submitted), final.Finished.Sub(final.Started)
	if ingress < 0 || queue < 0 || run < 0 || ingress+queue+run != final.Finished.Sub(send) {
		w.problem("job %d: stamps out of order (ingress %v, queue %v, run %v)", rec.ID, ingress, queue, run)
	}
	return serveSample{ok: true, traced: traced, send: send, admitted: admitted, observed: observed, rec: final}
}
