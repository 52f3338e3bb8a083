package jobs

// Concurrency battery for the multi-runner scheduler: pool-width
// saturation, a mixed submit/cancel/shutdown storm, and goroutine
// hygiene. CI runs this package under -race; these tests are
// what that flag is for.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpm/internal/metrics"
)

// gate tracks the live-concurrency high-water mark of a fake miner.
type gate struct {
	mu      sync.Mutex
	cur, hi int
}

func (g *gate) enter() {
	g.mu.Lock()
	g.cur++
	if g.cur > g.hi {
		g.hi = g.cur
	}
	g.mu.Unlock()
}

func (g *gate) exit() {
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

func (g *gate) high() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hi
}

// waitGoroutines polls until the goroutine count drops back to within
// slack of base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkRunningSet asserts, under one hold of the store lock, that the
// running set Shutdown walks holds exactly the jobs in
// state "running" — so its size, which Stats reports as Running, is the
// true count of jobs on runners.
func checkRunningSet(t *testing.T, st *Store) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.State != "running" {
			continue
		}
		n++
		if st.running[j.ID] != j {
			t.Errorf("running job %d missing from the running set", j.ID)
		}
	}
	if len(st.running) != n {
		t.Errorf("running set has %d jobs, %d are in state running", len(st.running), n)
	}
}

// The pool must actually run MaxConcurrent jobs at once — and never more.
func TestSchedulerSaturatesPool(t *testing.T) {
	var g gate
	release := make(chan struct{})
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		g.enter()
		defer g.exit()
		<-release
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 64, MaxConcurrent: 4})
	for i := 0; i < 12; i++ {
		if _, err := st.Submit(JobRequest{MinSupport: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Running < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", st.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	st.Close()
	if hi := g.high(); hi != 4 {
		t.Fatalf("concurrency high-water = %d, want exactly 4", hi)
	}
	if s := st.Stats(); s.Done != 12 || s.Running != 0 || s.Queued != 0 {
		t.Fatalf("census after drain = %+v", s)
	}
}

// The storm: four runners, a mix of instant / slow / failing / blocking
// jobs submitted from eight goroutines, random cancellations mid-flight,
// then a mid-storm Shutdown. Afterwards: full census (every submission
// accounted once), all runner goroutines joined, nothing leaked.
func TestSchedulerShutdownStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	mine := func(ctx context.Context, req JobRequest, _ *metrics.Recorder) (MineResult, error) {
		switch req.Algo {
		case "instant":
			return MineResult{Itemsets: 1}, nil
		case "fail":
			return MineResult{}, errors.New("boom")
		case "cached":
			return MineResult{Itemsets: 3, FromCache: true}, nil
		default: // "block": honour cancellation like a real kernel
			select {
			case <-ctx.Done():
				return MineResult{}, ctx.Err()
			case <-time.After(50 * time.Millisecond):
				return MineResult{Itemsets: 2}, nil
			}
		}
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{QueueCap: 256, MaxConcurrent: 4})

	var submitted, rejected atomic.Int64
	var wg sync.WaitGroup
	algos := []string{"instant", "fail", "cached", "block"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				job, err := st.Submit(JobRequest{Algo: algos[rng.Intn(len(algos))], MinSupport: 2})
				checkRunningSet(t, st)
				switch {
				case err == nil:
					submitted.Add(1)
					if rng.Intn(4) == 0 {
						st.Cancel(job.ID)
					}
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
					rejected.Add(1)
				default:
					t.Errorf("submit: %v", err)
				}
				if rng.Intn(8) == 0 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}
		}(int64(w) + 1)
	}
	time.Sleep(5 * time.Millisecond)
	st.Shutdown() // mid-storm: submitters keep hammering a closing store
	wg.Wait()
	st.Shutdown() // idempotent

	s := st.Stats()
	if got := s.Done + s.Failed + s.Cancelled; got != s.Submitted {
		t.Fatalf("census leak: done %d + failed %d + cancelled %d != submitted %d",
			s.Done, s.Failed, s.Cancelled, s.Submitted)
	}
	if s.Submitted != uint64(submitted.Load()) {
		t.Fatalf("store counted %d submissions, clients saw %d accepted", s.Submitted, submitted.Load())
	}
	if s.Running != 0 || s.Queued != 0 {
		t.Fatalf("store not quiescent after shutdown: %+v", s)
	}
	checkRunningSet(t, st)
	for _, j := range st.List() {
		switch j.State {
		case "done", "failed", "cancelled":
		default:
			t.Fatalf("job %d left in state %q after shutdown", j.ID, j.State)
		}
		if j.State == "done" && j.Request.Algo == "cached" && !j.ServedFromCache {
			t.Fatalf("job %d lost its served_from_cache mark", j.ID)
		}
	}
	waitGoroutines(t, base)
}

// Close (graceful drain) still runs everything already queued across the
// whole pool before returning.
func TestSchedulerCloseDrainsPool(t *testing.T) {
	var done atomic.Int64
	st := NewStoreWithConfig(
		func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
			time.Sleep(time.Millisecond)
			done.Add(1)
			return MineResult{}, nil
		},
		nil, StoreConfig{QueueCap: 64, MaxConcurrent: 3})
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := st.Submit(JobRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if done.Load() != n {
		t.Fatalf("Close returned with %d/%d jobs run", done.Load(), n)
	}
	if _, err := st.Submit(JobRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// A DELETE that lands after a runner popped a job but before it mines
// must cancel the job once, through its context. The test claims the
// queue head itself, as a second runner would, cancels it, then runs it.
// When the pop left the job "queued" until run() re-locked, the cancel
// finished it as a queued job and run() then decremented Queued a second
// time and mined it to a second terminal state (Queued:-1, one more
// outcome than submissions).
func TestSchedulerCancelBetweenClaimAndMine(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	mine := func(ctx context.Context, req JobRequest, _ *metrics.Recorder) (MineResult, error) {
		if req.Path == "blocker" {
			close(started)
			<-release
			return MineResult{}, nil
		}
		return MineResult{}, ctx.Err()
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{MaxConcurrent: 1})
	if _, err := st.Submit(JobRequest{Path: "blocker"}); err != nil {
		t.Fatal(err)
	}
	<-started // the only runner is busy, so the next job waits for us
	victim, err := st.Submit(JobRequest{Path: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	job, ctx, cancel, ok := st.next()
	if !ok || job.ID != victim.ID {
		t.Fatalf("claimed %+v (ok=%v), want job %d", job, ok, victim.ID)
	}
	st.Cancel(victim.ID)
	st.run(ctx, job, cancel)
	close(release)
	st.Close()

	js := st.Stats()
	if js.Queued != 0 || js.Running != 0 || js.Done != 1 || js.Cancelled != 1 ||
		js.Done+js.Failed+js.Cancelled != js.Submitted {
		t.Fatalf("census after claim-window cancel = %+v", js)
	}
	if got, _ := st.Get(victim.ID); got.State != "cancelled" {
		t.Fatalf("victim state = %q, want cancelled", got.State)
	}
	if h := st.Histograms(); h.E2E.Count() != 2 {
		t.Fatalf("terminal transitions recorded = %d, want 2", h.E2E.Count())
	}
}

func TestStoreQueueFull(t *testing.T) {
	block := make(chan struct{})
	st := NewStoreWithConfig(func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		<-block
		return MineResult{}, nil
	}, nil, StoreConfig{QueueCap: 4})
	// One job occupies the runner (it drains from the queue as soon as the
	// runner picks it up), so keep submitting until the 4-slot queue
	// itself is full; rejections must not grow the job list.
	var err error
	admitted := 0
	for i := 0; i < 50; i++ {
		_, err = st.Submit(JobRequest{})
		if err != nil {
			break
		}
		admitted++
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit after queue full = %v, want ErrQueueFull", err)
	}
	if admitted > 5 {
		t.Fatalf("admitted %d jobs through a 4-slot queue", admitted)
	}
	// A rejection leaves no record behind: a rejection storm must not grow
	// the store's memory. It is visible only in the Rejected counter.
	if got := len(st.List()); got != admitted {
		t.Fatalf("rejected submissions left records: %d jobs listed, %d admitted", got, admitted)
	}
	js := st.Stats()
	if js.Rejected != 1 || js.Submitted != uint64(admitted) || js.QueueCap != 4 {
		t.Fatalf("Stats after rejection = %+v", js)
	}
	close(block)
	st.Close()
	if js := st.Stats(); js.Done != uint64(admitted) || js.Queued != 0 || js.Running != 0 {
		t.Fatalf("Stats after drain = %+v", js)
	}
}
