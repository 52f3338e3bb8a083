// Package parallel provides task-parallel frequent itemset mining with a
// work-stealing scheduler. Each worker owns a LIFO deque of subtree tasks;
// starved workers steal the oldest task from a randomised victim. Every
// kernel implements mine.Splitter: the pool seeds the whole database as one
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
// worker.
//
// Results are collected through per-worker mine.ShardCollector arenas —
// one slice append per itemset instead of the former per-itemset channel
// send plus allocation — and merged on the caller's goroutine once mining
// finishes, preserving the Collector single-goroutine contract. The pool
// keeps each itemset as its kernel emitted it — items ascending, per the
// mine.Collector contract — and imposes no order across subtrees.
package parallel

import (
	"context"
	"runtime"
	"strconv"
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
// subtree's work; 2048 occurrences ≈ a few microseconds of kernel time.
const DefaultCutoff = 2048

// Options configure a parallel Miner beyond the worker count.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cutoff is the minimum estimated subtree weight for task spawning;
	// <= 0 means DefaultCutoff.
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
	// tracks are created once per Miner and reused across Mine calls, so a
	// tracing Miner must not run concurrent Mines. Nil disables tracing at
	// the cost of one nil check per task/hunt.
	Trace *trace.Recorder
	// Cancel, when non-nil, aborts the pool cooperatively: workers drop
	// queued tasks once it trips, Spawner.Cancelled reports true so the
	// kernels unwind mid-recursion, and Mine returns Cancel.Err(). Every
	// kernel polls Spawner.Cancelled where it polls its own flag, so the
	// latency is the same with or without the flag in the kernel factory.
	Cancel *cancel.Flag
	// Ctx is a convenience alternative to Cancel: when set (and Cancel is
	// nil), every Mine call arms a fresh flag from it for the duration of
	// the run. Context cancellation or deadline expiry then aborts the pool
	// and Mine returns ctx.Err().
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

// Option mutates Options; see With*.
type Option func(*Options)

// WithCutoff sets the task-spawn weight cutoff.
func WithCutoff(n int) Option { return func(o *Options) { o.Cutoff = n } }

// WithMetrics routes scheduler counters into rec.
func WithMetrics(rec *metrics.Recorder) Option { return func(o *Options) { o.Metrics = rec } }

// WithTrace routes worker span timelines into tr (see Options.Trace).
func WithTrace(tr *trace.Recorder) Option { return func(o *Options) { o.Trace = tr } }

// WithCancel attaches a cooperative cancellation flag (see Options.Cancel).
func WithCancel(cf *cancel.Flag) Option { return func(o *Options) { o.Cancel = cf } }

// New returns a parallel miner running opts-many workers (0 means
// GOMAXPROCS), each using its own kernel from factory (kernels are not
// required to be concurrency-safe).
func New(workers int, factory func() mine.Splitter, opts ...Option) *Miner {
	o := Options{Workers: workers}
	for _, fn := range opts {
		fn(&o)
	}
	return NewWithOptions(o, factory)
}

// NewWithOptions is New with explicit Options.
func NewWithOptions(opts Options, factory func() mine.Splitter) *Miner {
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
		// Mine calls (the out-of-core miner runs one pool per chunk), so a
		// multi-chunk run stays one timeline row per worker.
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
// listing sort it with mine.SortCanonical.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	cf := m.opts.Cancel
	if cf == nil && m.opts.Ctx != nil {
		var stop func()
		cf, stop = cancel.FromContext(m.opts.Ctx)
		defer stop()
	}

	p := newPool(m.opts.Workers, m.opts.Cutoff, m.factory, m.opts.Metrics, m.name, m.tracks)
	p.inner = m.inner
	p.cancel = cf

	// The whole database is the one root task; the kernel's own Offer
	// calls fan the recursion out as soon as workers starve.
	p.rec.TaskSpawned()
	p.active.Add(1)
	p.push(p.workers[0], task{weight: db.Weight(), run: func(w *worker) error {
		return w.inner.MineSplit(db, minSupport, &w.shard, w)
	}})

	if err := p.run(); err != nil {
		return err
	}
	if m.opts.Metrics != nil {
		t0 := time.Now()
		m.merge(p, c)
		m.opts.Metrics.AddMergeTime(time.Since(t0))
		return nil
	}
	m.merge(p, c)
	return nil
}

// merge drains every worker shard into the caller's collector on the
// calling goroutine. A BatchCollector takes whole shards; any other
// collector gets the shards replayed one itemset at a time.
func (m *Miner) merge(p *pool, c mine.Collector) {
	if bc, ok := c.(mine.BatchCollector); ok {
		for _, w := range p.workers {
			bc.CollectBatch(&w.shard)
		}
		return
	}
	for _, w := range p.workers {
		w.shard.Emit(c)
	}
}
