package jobs

// Concurrency battery for the multi-runner scheduler: pool-width
// saturation, memory-budget admission (including the shed hook and the
// oversized-job force-admit), a mixed submit/cancel/shutdown storm, and
// goroutine hygiene. CI runs this package under -race; these tests are
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
// running set the sampler and Shutdown walk holds exactly the jobs in
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

// With no memory budget, the pool must actually run MaxConcurrent jobs at
// once — and never more.
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

// With a budget that fits one job at a time, admission must serialize the
// pool down to width 1 even though four runners are idle, and the shed
// hook must be consulted for the deficit.
func TestSchedulerAdmissionSerializesUnderBudget(t *testing.T) {
	var g gate
	var sheds atomic.Int64
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		g.enter()
		defer g.exit()
		time.Sleep(2 * time.Millisecond)
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap:      64,
		MaxConcurrent: 4,
		MemBudget:     100,
		Footprint:     func(JobRequest) (int64, bool) { return 60, false }, // two never fit
		Shed:          func(need int64) int64 { sheds.Add(1); return 0 },
	})
	for i := 0; i < 8; i++ {
		if _, err := st.Submit(JobRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if hi := g.high(); hi != 1 {
		t.Fatalf("concurrency high-water = %d, want 1 (budget fits one 60-byte job)", hi)
	}
	if s := st.Stats(); s.Done != 8 {
		t.Fatalf("census = %+v", s)
	}
	if sheds.Load() == 0 {
		t.Fatal("admission never consulted the shed hook while over budget")
	}
	// The shed consultations must be visible on /metrics, not just to the
	// hook: the counter and the hook must agree exactly.
	if s := st.Stats(); int64(s.Shed) != sheds.Load() {
		t.Fatalf("stats.Shed = %d, want %d (one per shed-hook call)", s.Shed, sheds.Load())
	}
	// Every admitted job carried a heuristic estimate (the Footprint func
	// reports learned=false), and the split must account for all of them.
	if s := st.Stats(); s.FootprintHeuristic != 8 || s.FootprintLearned != 0 {
		t.Fatalf("footprint split = learned %d / heuristic %d, want 0/8", s.FootprintLearned, s.FootprintHeuristic)
	}
}

// A job bigger than the whole budget must still run once nothing else is
// in flight (admission degrades to serialization, never deadlock), and a
// successful shed must be retried before waiting.
func TestSchedulerOversizedJobForceAdmitted(t *testing.T) {
	cached := int64(500) // pretend half a KiB of cached state
	st := NewStoreWithConfig(
		func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
			return MineResult{Itemsets: 1}, nil
		},
		nil,
		StoreConfig{
			QueueCap:      8,
			MaxConcurrent: 2,
			MemBudget:     100,
			Footprint:     func(JobRequest) (int64, bool) { return 1000, false },
			CacheResident: func() int64 { return atomic.LoadInt64(&cached) },
			Shed: func(need int64) int64 {
				// First call frees the cached bytes; later calls find nothing.
				return atomic.SwapInt64(&cached, 0)
			},
		})
	job, err := st.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _ := st.Get(job.ID)
		if j.State == "done" {
			if j.MemEstimate != 1000 {
				t.Fatalf("job ran with estimate %d, want 1000", j.MemEstimate)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oversized job deadlocked in admission: %+v", j)
		}
		time.Sleep(time.Millisecond)
	}
	if got := atomic.LoadInt64(&cached); got != 0 {
		t.Fatal("admission never shed the cached bytes")
	}
	st.Close()
}

// Oversized jobs must truly serialize: force-admission is gated on the
// Running gauge, which moves in the same critical section that pops the
// queue. With a gate that lagged the pop, two runners could both see
// "nothing in flight" and run two over-budget jobs at once — exactly the
// OOM the budget exists to prevent.
func TestSchedulerOversizedJobsNeverOverlap(t *testing.T) {
	var g gate
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		g.enter()
		defer g.exit()
		time.Sleep(2 * time.Millisecond)
		return MineResult{}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap:      64,
		MaxConcurrent: 4,
		MemBudget:     100,
		Footprint:     func(JobRequest) (int64, bool) { return 1000, false }, // every job oversized
	})
	for i := 0; i < 10; i++ {
		if _, err := st.Submit(JobRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if hi := g.high(); hi != 1 {
		t.Fatalf("oversized-job concurrency high-water = %d, want 1", hi)
	}
	if s := st.Stats(); s.Done != 10 {
		t.Fatalf("census = %+v", s)
	}
}

// While a runner is inside the shed hook the store lock is dropped, so the
// queue head it captured can be cancelled or claimed by a peer. The runner
// must re-validate the head after re-locking instead of popping blind —
// popping blind runs cancelled jobs, double-decrements the queued gauge,
// or strands a different job in "queued" forever. A slow shed hook widens
// that window while cancels and submits hammer the queue.
func TestSchedulerShedWindowCancelStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	mine := func(ctx context.Context, _ JobRequest, _ *metrics.Recorder) (MineResult, error) {
		time.Sleep(200 * time.Microsecond)
		return MineResult{Itemsets: 1}, nil
	}
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap:      256,
		MaxConcurrent: 4,
		MemBudget:     100,
		Footprint:     func(JobRequest) (int64, bool) { return 60, false }, // only one fits: shed runs constantly
		Shed: func(int64) int64 {
			time.Sleep(100 * time.Microsecond) // widen the unlocked window
			return 0
		},
	})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				job, err := st.Submit(JobRequest{})
				checkRunningSet(t, st)
				if err != nil {
					continue // queue full is fine; keep the pressure up
				}
				if rng.Intn(2) == 0 {
					st.Cancel(job.ID)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	st.Close()

	s := st.Stats()
	if got := s.Done + s.Failed + s.Cancelled; got != s.Submitted {
		t.Fatalf("census leak: done %d + failed %d + cancelled %d != submitted %d",
			s.Done, s.Failed, s.Cancelled, s.Submitted)
	}
	if s.Running != 0 || s.Queued != 0 || s.MemUsed != 0 {
		t.Fatalf("store not quiescent after drain: %+v", s)
	}
	checkRunningSet(t, st)
	for _, j := range st.List() {
		switch j.State {
		case "done", "failed", "cancelled":
		default:
			t.Fatalf("job %d stranded in state %q", j.ID, j.State)
		}
	}
	waitGoroutines(t, base)
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
	st := NewStoreWithConfig(mine, nil, StoreConfig{
		QueueCap:      256,
		MaxConcurrent: 4,
		MemBudget:     1 << 20,
		Footprint:     func(JobRequest) (int64, bool) { return 1 << 10, false },
	})

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
	if s.Running != 0 || s.Queued != 0 || s.MemUsed != 0 {
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
