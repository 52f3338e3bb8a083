// Package parallel provides task-parallel frequent itemset mining with a
// work-stealing scheduler. Each worker owns a LIFO deque of subtree tasks;
// starved workers steal the oldest task from a randomised victim. Every
// kernel implements mine.Splitter: the pool seeds a whole database as one
// root task, and the kernel offers a recursion subtree as a stealable task
// only while the pool is starved AND the subtree's estimated work (its
// projected-database weight, in item occurrences) clears a cutoff — below
// the cutoff, or with every worker busy, the owning worker recurses
// sequentially, so the common path costs one atomic load per node. This is
// the dynamic task parallelism Kambadur et al. show fits FPM's irregular
// search trees, layered over the per-worker cache-resident projections of
// Ghoting et al. [11] — the thread-level direction the paper's §6 names as
// future work on its own dual-core evaluation machines. A kernel with no
// recursion to split (Apriori) never offers, and its root task runs on one
// worker. A Session starts the workers once and accepts many roots, each
// with its own database and support: the out-of-core miner submits every
// SON chunk to one session, and Mine is a session with one root.
//
// Results are collected through per-root, per-worker mine.ShardCollector
// arenas — one slice append per itemset instead of the former per-itemset
// channel send plus allocation — and merged on the caller's goroutine once
// the root finishes, preserving the Collector single-goroutine contract.
// The pool keeps each itemset as its kernel emitted it — items ascending,
// per the mine.Collector contract — and imposes no order across subtrees.
package parallel

import (
	"context"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// DefaultCutoff is the minimum estimated subtree weight (item occurrences
// in the projected database) for a subtree to become a stealable task.
// Every spawn site reports this unit: LCM uses mine.SubtreeWeight over its
// conditional databases, FP-Growth sums row weight × row length over its
// conditional pattern bases, and Eclat's summed class supports count the
// same occurrences through the vertical representation (each support is
// one item's set-bit count over the transactions containing the prefix).
// Below the cutoff the synchronisation and task bookkeeping outweigh the
// subtree's work: LCM takes about 170 µs on a 2,300-occurrence
// out-of-core chunk, so 2048 occurrences is of the order of 150 µs of
// kernel time. The cutoff is not a run option: at 64 the out-of-core
// benchmark is no faster and BenchmarkParallelDense at two workers is up
// to 5% slower (EXPERIMENTS.md "The spawn cutoff is a constant").
const DefaultCutoff = 2048

// Options configure a parallel Miner.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cutoff is the minimum estimated subtree weight for task spawning;
	// <= 0 means DefaultCutoff. Only tests set it, to force splits on
	// inputs too small to clear the default.
	Cutoff int
	// Metrics, when non-nil, receives the scheduler's counters: tasks
	// spawned/offered/stolen, steal failures, shard-merge time and
	// per-worker utilization. Kernel-level counters (nodes, supports) are
	// recorded by the inner miners when they are constructed with the same
	// recorder. Nil disables recording.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives span timelines: one track per worker
	// with task-run spans (labeled by the inner kernel and the subtree
	// weight), idle spans for starved intervals and steal markers. Worker
	// tracks are created once per Miner and reused across sessions, so a
	// tracing Miner must not run concurrent Mines or sessions. Nil
	// disables tracing at the cost of one nil check per task/hunt.
	Trace *trace.Recorder
	// Cancel, when non-nil, aborts the pool cooperatively: workers drop
	// queued tasks once it trips, Spawner.Cancelled reports true so the
	// kernels unwind mid-recursion, and Mine returns Cancel.Err(). Every
	// kernel polls Spawner.Cancelled where it polls its own flag, so the
	// latency is the same with or without the flag in the kernel factory.
	Cancel *cancel.Flag
	// Ctx is a convenience alternative to Cancel: when set (and Cancel is
	// nil), every session (every Mine call) arms a fresh flag from it for
	// the duration of the run. Context cancellation or deadline expiry
	// then aborts the pool and Mine returns ctx.Err().
	Ctx context.Context
}

// Miner schedules a splitting kernel over the work-stealing pool.
type Miner struct {
	opts    Options
	factory func() mine.Splitter
	name    string
	inner   string         // the inner kernel's Name(), labels task spans
	tracks  []*trace.Track // per-worker trace tracks, reused across Mine calls
}

// New returns a parallel miner running opts.Workers workers (<= 0 means
// GOMAXPROCS), each using its own kernel from factory (kernels are not
// required to be concurrency-safe).
func New(opts Options, factory func() mine.Splitter) *Miner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Cutoff <= 0 {
		opts.Cutoff = DefaultCutoff
	}
	// Cache the inner kernel's name: Name must not construct (and throw
	// away) a miner per call.
	inner := factory().Name()
	m := &Miner{opts: opts, factory: factory, name: "parallel(" + inner + ")", inner: inner}
	if opts.Trace != nil {
		// One trace track per worker slot, created once and reused across
		// sessions, so repeated runs stay one timeline row per worker.
		m.tracks = make([]*trace.Track, opts.Workers)
		for i := range m.tracks {
			m.tracks[i] = opts.Trace.NewTrack("worker " + strconv.Itoa(i))
		}
	}
	return m
}

// Name implements mine.Miner.
func (m *Miner) Name() string { return m.name }

// Mine implements mine.Miner. The result set equals the sequential
// kernel's, each itemset keeps the ascending item order its kernel emitted
// it in, and the collector is invoked from this goroutine only. Emission
// order across subtrees is scheduling-dependent; callers that print a
// listing sort it with mine.SortCanonical. Mine is one root on a session
// of its own.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}
	s := m.Start()
	r := s.Submit(db.Weight(), func(k mine.Splitter, c mine.Collector, sp mine.Spawner) error {
		return k.MineSplit(db, minSupport, c, sp)
	}, nil)
	if err := s.Close(); err != nil {
		return err
	}
	r.Emit(c)
	return nil
}

// Session is one run of the pool: Start launches the workers once, Submit
// adds root tasks — each with its own database and support, mined into
// shards of its own — and Close waits for every root and stops the
// workers. A worker that runs out of work steals subtrees of any root, so
// the roots of one session share the workers exactly as the subtrees of
// one root do. Submit, Abort and Close are called from one goroutine.
type Session struct {
	p    *pool
	stop func() // releases the context callback armed by Start
	next int    // worker whose deque receives the next root
}

// Root is one submitted root task. Its itemsets stay in per-worker shards
// until Emit hands them to a collector.
type Root struct {
	p       *pool
	shards  []mine.ShardCollector // indexed by worker id
	pending atomic.Int64          // unfinished tasks of this root
	done    chan struct{}         // closed when pending reaches zero
	notify  chan<- *Root          // receives the root when it completes; may be nil
}

// Start launches the miner's workers and returns the session that feeds
// them. The cancellation flag (Options.Cancel, or one armed from
// Options.Ctx) covers every root of the session. A tracing Miner must not
// have two sessions open at once.
func (m *Miner) Start() *Session {
	cf, stop := m.opts.Cancel, func() {}
	if cf == nil && m.opts.Ctx != nil {
		cf, stop = cancel.FromContext(m.opts.Ctx)
	}
	p := newPool(m.opts.Workers, m.opts.Cutoff, m.factory, m.opts.Metrics, cf, m.name, m.inner, m.tracks)
	p.start()
	return &Session{p: p, stop: stop}
}

// RootFunc is a root task's body. It runs on a worker, mining with that
// worker's kernel k into c and offering subtrees through sp — usually
// k.MineSplit(db, minSupport, c, sp), after any preparation of db that
// should run off the submitting goroutine.
type RootFunc func(k mine.Splitter, c mine.Collector, sp mine.Spawner) error

// Submit queues run as a new root task; weight (item occurrences, as
// dataset.DB.Weight counts them) labels its trace span. The kernel's own
// Offer calls fan the root's recursion out over the pool as soon as
// workers starve. When notify is non-nil, the worker that finishes the
// root's last task sends the root on it; the caller must leave room for
// that send, which would otherwise stall the worker.
func (s *Session) Submit(weight int, run RootFunc, notify chan<- *Root) *Root {
	p := s.p
	r := &Root{p: p, done: make(chan struct{}), notify: notify}
	if n := len(p.spare); n > 0 {
		r.shards, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		r.shards = make([]mine.ShardCollector, len(p.workers))
	}
	p.rec.TaskSpawned()
	r.pending.Store(1)
	p.active.Add(1)
	w := p.workers[s.next]
	s.next = (s.next + 1) % len(p.workers)
	p.push(w, task{root: r, weight: weight, run: func(w *worker) error {
		return run(w.inner, &r.shards[w.id], w)
	}})
	return r
}

// Abort records err as the session's first error (unless one is already
// recorded): queued tasks of every root are dropped and running kernels
// unwind.
func (s *Session) Abort(err error) { s.p.fail(err) }

// Close waits until every submitted root has finished, stops the workers
// and returns the session's first error, or the cancellation cause.
func (s *Session) Close() error {
	err := s.p.join()
	s.stop()
	return err
}

// Wait blocks until every task of the root has finished and returns the
// session's error at that point: a root that completes in a failed or
// cancelled session may be missing subtrees, so its shards must not be
// used.
func (r *Root) Wait() error {
	<-r.done
	return r.p.result()
}

// Emit drains the root's shards into c on the calling goroutine, after
// Wait returned nil (or Close did), and hands them, emptied, to the next
// root Submit creates, so a long session regrows no shards. A
// BatchCollector takes whole shards; any other collector gets the shards
// replayed one itemset at a time. Emit is called on the goroutine that
// calls Submit, at most once per root.
func (r *Root) Emit(c mine.Collector) {
	var t0 time.Time
	if r.p.rec != nil {
		t0 = time.Now()
	}
	if bc, ok := c.(mine.BatchCollector); ok {
		for i := range r.shards {
			bc.CollectBatch(&r.shards[i])
		}
	} else {
		for i := range r.shards {
			r.shards[i].Emit(c)
		}
	}
	for i := range r.shards {
		r.shards[i].Reset()
	}
	r.p.spare = append(r.p.spare, r.shards)
	r.shards = nil
	if r.p.rec != nil {
		r.p.rec.AddMergeTime(time.Since(t0))
	}
}
