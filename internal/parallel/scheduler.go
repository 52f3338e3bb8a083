package parallel

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fpm/internal/cancel"
	"fpm/internal/failpoint"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// task is one schedulable unit: a weighted closure run with the executing
// worker's context (its spawner, and its shard of the task's root).
type task struct {
	root   *Root
	weight int
	run    func(w *worker) error
}

// pool is the work-stealing scheduler. Tasks live in per-worker deques:
// the owner pushes and pops at the tail (LIFO, so it keeps working on the
// most recently split — deepest, cache-hottest — subtree), thieves steal
// from the head (FIFO, so they take the oldest and therefore typically
// largest subtree, which minimises steal frequency).
type pool struct {
	workers []*worker
	cutoff  int
	name    string            // inner kernel name, for pprof labels
	rec     *metrics.Recorder // nil when metrics are disabled
	inner   string            // inner kernel's Name(), labels task spans

	idle    atomic.Int32 // workers currently hunting for work
	active  atomic.Int64 // unfinished tasks, plus one while the session is open
	stopped atomic.Bool  // set on first error; aborts remaining work
	cancel  *cancel.Flag // external cancellation; nil when detached

	errOnce sync.Once
	err     error

	spare [][]mine.ShardCollector // emptied root shards; the submitting goroutine's only

	done chan struct{}  // closed when active reaches zero
	wake chan struct{}  // buffered wake signals for idle workers
	wg   sync.WaitGroup // joins the worker goroutines
}

// worker is one mining goroutine. It implements mine.Spawner: kernels
// running on this worker offer subtrees through it.
type worker struct {
	id    int
	pool  *pool
	inner mine.Splitter
	cur   *Root        // root of the task this worker is running
	rng   uint64       // xorshift state for victim selection
	tk    *trace.Track // span timeline; nil when tracing is disabled

	// tasks/busyNanos accumulate per-worker utilization when metrics are
	// enabled; owned by the worker goroutine, flushed after the pool joins.
	tasks     uint64
	busyNanos int64

	mu    sync.Mutex
	deque []task
}

func newPool(workers, cutoff int, factory func() mine.Splitter, rec *metrics.Recorder, cf *cancel.Flag, name, inner string, tracks []*trace.Track) *pool {
	p := &pool{
		cutoff: cutoff,
		cancel: cf,
		rec:    rec,
		name:   name,
		inner:  inner,
		done:   make(chan struct{}),
		wake:   make(chan struct{}, workers),
	}
	p.workers = make([]*worker, workers)
	for i := range p.workers {
		w := &worker{id: i, pool: p, inner: factory(), rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
		if tracks != nil {
			w.tk = tracks[i]
		}
		p.workers[i] = w
	}
	// The open session holds one count, so the pool does not drain between
	// roots; Session.Close releases it.
	p.active.Store(1)
	return p
}

// push enqueues t on worker w's deque and wakes a hunter. The caller must
// have already accounted for t in p.active.
func (p *pool) push(w *worker, t task) {
	w.mu.Lock()
	w.deque = append(w.deque, t)
	w.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// fail records the first error and aborts all outstanding work: workers
// drop queued tasks without running them, and kernels mid-recursion unwind
// via Spawner.Cancelled / accept-and-drop Offers.
func (p *pool) fail(err error) {
	p.errOnce.Do(func() {
		p.err = err
		p.stopped.Store(true)
	})
}

// start launches the worker goroutines; they run until the session is
// closed and every task has finished (or been dropped after cancellation).
func (p *pool) start() {
	for _, w := range p.workers {
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			// Label the worker goroutine so CPU profiles attribute samples
			// to kernel and worker (`go tool pprof -tagfocus`).
			labels := pprof.Labels("fpm_kernel", p.name, "fpm_worker", strconv.Itoa(w.id))
			pprof.Do(context.Background(), labels, func(context.Context) { w.loop() })
		}(w)
	}
}

// join releases the session's hold, waits for the workers to exit and
// flushes their utilization, then returns the session's result.
func (p *pool) join() error {
	if p.active.Add(-1) == 0 {
		close(p.done)
	}
	p.wg.Wait()
	if p.rec != nil {
		for _, w := range p.workers {
			p.rec.AddWorker(metrics.WorkerStat{ID: w.id, Tasks: w.tasks, BusyNanos: w.busyNanos})
		}
	}
	return p.result()
}

// result is the first error recorded, else the cancellation cause, else
// nil. A cancelled pool drains without recording an error of its own, so
// the cancellation cause is the run's result. Reading stopped first orders
// the read of err after fail's write.
func (p *pool) result() error {
	if p.stopped.Load() {
		return p.err
	}
	return p.cancel.Err()
}

func (w *worker) loop() {
	for {
		t, ok := w.pop()
		if !ok {
			t, ok = w.hunt()
			if !ok {
				return
			}
		}
		w.runTask(t)
	}
}

// runTask executes t (unless mining was aborted or cancelled) and retires
// it; the last task of a root completes the root, and the last retirement
// after the session closes releases every hunting worker. Cancelled pools
// keep draining: tasks are skipped, not run, so active reaches zero and the
// pool joins promptly instead of hanging.
func (w *worker) runTask(t task) {
	p := w.pool
	w.cur = t.root
	if !p.stopped.Load() && !p.cancel.Cancelled() {
		var t0 time.Time
		if p.rec != nil {
			t0 = time.Now()
		}
		var ts int64
		if w.tk != nil {
			ts = w.tk.Begin()
		}
		err := w.safeRun(t)
		if w.tk != nil {
			w.tk.End(ts, p.inner, trace.CatTask, int64(t.weight))
		}
		if p.rec != nil {
			w.busyNanos += int64(time.Since(t0))
			w.tasks++
		}
		if err != nil {
			p.fail(err)
		}
	}
	if r := t.root; r.pending.Add(-1) == 0 {
		close(r.done)
		if r.notify != nil {
			r.notify <- r
		}
	}
	if p.active.Add(-1) == 0 {
		close(p.done)
	}
}

// safeRun executes the task body with panic containment: a panicking kernel
// (or an armed failpoint standing in for one) is recovered into an error
// instead of tearing down the process, so the pool records it as the first
// error, remaining tasks drain via the stopped flag, and Mine returns it.
func (w *worker) safeRun(t task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			w.pool.rec.WorkerPanic()
			err = fmt.Errorf("parallel: worker %d: task panicked: %v", w.id, r)
		}
	}()
	if err := failpoint.Hit(failpoint.ParallelWorkerTask); err != nil {
		return err
	}
	return t.run(w)
}

// pop takes the newest task from the worker's own deque.
func (w *worker) pop() (task, bool) {
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return task{}, false
	}
	t := w.deque[n-1]
	w.deque[n-1] = task{}
	w.deque = w.deque[:n-1]
	w.mu.Unlock()
	return t, true
}

// stealFrom takes the oldest task from victim v's deque.
func (w *worker) stealFrom(v *worker) (task, bool) {
	v.mu.Lock()
	if len(v.deque) == 0 {
		v.mu.Unlock()
		return task{}, false
	}
	t := v.deque[0]
	copy(v.deque, v.deque[1:])
	v.deque[len(v.deque)-1] = task{}
	v.deque = v.deque[:len(v.deque)-1]
	v.mu.Unlock()
	return t, true
}

// hunt is the starved path: check the own deque, scan victims in
// randomised order, then block until new work is pushed or the pool
// drains. While at least one worker is in hunt, p.idle is positive and
// Offers start being accepted.
func (w *worker) hunt() (task, bool) {
	p := w.pool
	p.idle.Add(1)
	defer p.idle.Add(-1)
	// The whole starved interval is one idle span (arg = failed full
	// victim scans); a successful steal additionally drops an instant
	// marker carrying the victim id.
	var ts, fails int64
	if w.tk != nil {
		ts = w.tk.Begin()
	}
	for {
		// A session may submit a root to this worker's own deque while it
		// hunts.
		if t, ok := w.pop(); ok {
			if w.tk != nil {
				w.tk.End(ts, "idle", trace.CatIdle, fails)
			}
			return t, true
		}
		n := len(p.workers)
		start := int(w.nextRand() % uint64(n))
		for i := 0; i < n; i++ {
			v := p.workers[(start+i)%n]
			if v == w {
				continue
			}
			if t, ok := w.stealFrom(v); ok {
				p.rec.TaskStolen()
				if w.tk != nil {
					w.tk.End(ts, "idle", trace.CatIdle, fails)
					w.tk.Instant("steal", trace.CatSteal, int64(v.id))
				}
				return t, true
			}
		}
		p.rec.StealFailure()
		fails++
		select {
		case <-p.wake:
		case <-p.done:
			if w.tk != nil {
				w.tk.End(ts, "idle", trace.CatIdle, fails)
			}
			return task{}, false
		}
	}
}

// nextRand is a xorshift64* step — cheap thread-local randomness for
// victim selection.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545f4914f6cdd1d
}

// WouldSteal implements mine.Spawner: the zero-allocation spawn pre-check
// — one comparison and one atomic load — kernels run at every recursion
// node before paying for task construction.
func (w *worker) WouldSteal(weight int) bool {
	p := w.pool
	return weight >= p.cutoff && p.idle.Load() > 0 && !p.stopped.Load() && !p.cancel.Cancelled()
}

// Offer implements mine.Spawner. The common (declined) path is a plain
// comparison plus one atomic load — no locks, no allocation observable by
// other workers — so kernels can call it at every recursion node.
func (w *worker) Offer(weight int, tf mine.TaskFunc) bool {
	p := w.pool
	if p.stopped.Load() || p.cancel.Cancelled() {
		// Accept and drop: the offering kernel skips the subtree, so its
		// recursion unwinds without mining anything more.
		return true
	}
	// Kernels gate Offer on WouldSteal, so this sits off the hot path.
	p.rec.TaskOffered()
	if weight < p.cutoff || p.idle.Load() == 0 {
		return false
	}
	p.rec.TaskSpawned()
	r := w.cur
	r.pending.Add(1)
	p.active.Add(1)
	p.push(w, task{root: r, weight: weight, run: func(rw *worker) error {
		return tf(&r.shards[rw.id], rw)
	}})
	return true
}

// Cancelled implements mine.Spawner.
func (w *worker) Cancelled() bool { return w.pool.stopped.Load() || w.pool.cancel.Cancelled() }
