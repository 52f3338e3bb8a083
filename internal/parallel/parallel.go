// Package parallel provides task-parallel frequent itemset mining with a
// work-stealing scheduler. Each worker owns a LIFO deque of subtree tasks;
// starved workers steal the oldest task from a randomised victim. A kernel
// that implements mine.Splitter offers a recursion subtree as a stealable
// task only while the pool is starved AND the subtree's estimated work
// (its projected-database weight, in item occurrences) clears a cutoff —
// below the cutoff, or with every worker busy, the owning worker recurses
// sequentially, so the common path costs one atomic load per node. This is
// the dynamic task parallelism Kambadur et al. show fits FPM's irregular
// search trees, layered over the per-worker cache-resident projections of
// Ghoting et al. [11] — the thread-level direction the paper's §6 names as
// future work on its own dual-core evaluation machines.
//
// Kernels without MineSplit still parallelise by first-level decomposition
// (one task per frequent item's subtree), scheduled through the same pool.
//
// Results are collected through per-worker mine.ShardCollector arenas —
// one slice append per itemset instead of the former per-itemset channel
// send plus allocation — and merged on the caller's goroutine once mining
// finishes, preserving the Collector single-goroutine contract.
package parallel

import (
	"context"
	"runtime"
	"sort"
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
// Every spawn site reports this unit: the first-level driver uses
// dataset.ProjectedWeight, LCM uses mine.SubtreeWeight over its conditional
// databases, and Eclat's summed class supports count the same occurrences
// through the vertical representation (each support is one item's set-bit
// count over the transactions containing the prefix). Below the cutoff the
// synchronisation and task bookkeeping outweigh the subtree's work;
// 2048 occurrences ≈ a few microseconds of kernel time.
const DefaultCutoff = 2048

// Options configure a parallel Miner beyond the worker count.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cutoff is the minimum estimated subtree weight for task spawning;
	// <= 0 means DefaultCutoff.
	Cutoff int
	// Deterministic sorts the merged results canonically (by size, then
	// items) before collection, making emission order — not just the
	// result set — run-to-run stable. Costs an O(n log n) sort over all
	// results at merge time.
	Deterministic bool
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
	// queued tasks once it trips, Spawner.Cancelled reports true so split
	// kernels unwind mid-recursion, and Mine returns Cancel.Err(). Drivers
	// that inject the same flag into the inner-kernel factory get per-node
	// cancel latency; with only the pool flag the latency is one task.
	Cancel *cancel.Flag
	// Ctx is a convenience alternative to Cancel: when set (and Cancel is
	// nil), every Mine call arms a fresh flag from it for the duration of
	// the run. Context cancellation or deadline expiry then aborts the pool
	// and Mine returns ctx.Err().
	Ctx context.Context
}

// Miner schedules any sequential kernel over the work-stealing pool.
type Miner struct {
	opts    Options
	factory func() mine.Miner
	name    string
	inner   string         // the inner kernel's Name(), labels task spans
	tracks  []*trace.Track // per-worker trace tracks, reused across Mine calls
}

// Option mutates Options; see With*.
type Option func(*Options)

// WithCutoff sets the task-spawn weight cutoff.
func WithCutoff(n int) Option { return func(o *Options) { o.Cutoff = n } }

// WithDeterministicMerge toggles the canonically sorted merge.
func WithDeterministicMerge(on bool) Option { return func(o *Options) { o.Deterministic = on } }

// WithMetrics routes scheduler counters into rec.
func WithMetrics(rec *metrics.Recorder) Option { return func(o *Options) { o.Metrics = rec } }

// WithTrace routes worker span timelines into tr (see Options.Trace).
func WithTrace(tr *trace.Recorder) Option { return func(o *Options) { o.Trace = tr } }

// WithCancel attaches a cooperative cancellation flag (see Options.Cancel).
func WithCancel(cf *cancel.Flag) Option { return func(o *Options) { o.Cancel = cf } }

// WithContext arms a per-run cancellation flag from ctx (see Options.Ctx).
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// New returns a parallel miner running opts-many workers (0 means
// GOMAXPROCS), each using its own sequential miner from factory (miners
// are not required to be concurrency-safe).
func New(workers int, factory func() mine.Miner, opts ...Option) *Miner {
	o := Options{Workers: workers}
	for _, fn := range opts {
		fn(&o)
	}
	return NewWithOptions(o, factory)
}

// NewWithOptions is New with explicit Options.
func NewWithOptions(opts Options, factory func() mine.Miner) *Miner {
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
// kernel's, every itemset is emitted in canonical (ascending item) order,
// and the collector is invoked from this goroutine only. Emission order
// across subtrees is scheduling-dependent unless Options.Deterministic is
// set.
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

	if _, ok := p.workers[0].inner.(mine.Splitter); ok {
		m.seedSplit(p, db, minSupport)
	} else if m.seedFirstLevel(p, db, minSupport) == 0 {
		// Nothing frequent, nothing to schedule. Starting the pool with
		// zero tasks would leave every worker blocked in hunt(): done is
		// closed by the last task retirement, which never happens.
		return cf.Err()
	}

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

// seedSplit enqueues the whole database as the single root task; the
// kernel's own Offer calls fan the recursion out as soon as workers
// starve.
func (m *Miner) seedSplit(p *pool, db *dataset.DB, minSupport int) {
	p.rec.TaskSpawned()
	p.active.Add(1)
	p.push(p.workers[0], task{weight: db.Weight(), run: func(w *worker) error {
		return w.inner.(mine.Splitter).MineSplit(db, minSupport, &w.out, w)
	}})
}

// seedFirstLevel enqueues one task per frequent item and reports how many
// it seeded (zero when no item meets minSupport — the caller must not run
// the pool then). The subtree below item e is mined by the worker's
// sequential kernel over e's projected database, and every result is
// extended with e. Tasks are distributed round-robin in decreasing
// estimated-weight order so the heaviest subtrees start first (LPT-style)
// and land on distinct deques.
func (m *Miner) seedFirstLevel(p *pool, db *dataset.DB, minSupport int) int {
	freq := db.Frequencies()
	type root struct {
		item   dataset.Item
		weight int
	}
	var roots []root
	for e := dataset.Item(0); int(e) < db.NumItems; e++ {
		if freq[e] >= minSupport {
			roots = append(roots, root{item: e, weight: db.ProjectedWeight(e)})
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].weight > roots[b].weight })

	p.active.Add(int64(len(roots)))
	for i, r := range roots {
		e := r.item
		sup := freq[e]
		p.rec.TaskSpawned()
		p.push(p.workers[i%len(p.workers)], task{weight: r.weight, run: func(w *worker) error {
			// This emission happens here, not in a kernel, so no kernel
			// Local counts it.
			p.rec.AddEmitted(1)
			w.out.Collect([]dataset.Item{e}, sup)
			proj := db.Project(e)
			if proj.Len() == 0 {
				return nil
			}
			ext := extendCollector{out: &w.out, branch: e}
			return w.inner.Mine(proj, minSupport, &ext)
		}})
	}
	return len(roots)
}

// extendCollector appends the branch item to every itemset mined from a
// projected database. Projection keeps only items below the branch item,
// so appending preserves ascending order whenever the inner kernel emits
// in ascending order; canonCollector re-sorts the exceptions.
type extendCollector struct {
	out    *canonCollector
	branch dataset.Item
	buf    []dataset.Item
}

func (x *extendCollector) Collect(items []dataset.Item, support int) {
	x.buf = append(append(x.buf[:0], items...), x.branch)
	x.out.Collect(x.buf, support)
}

// merge drains every worker shard into the caller's collector on the
// calling goroutine. Fast paths: a BatchCollector takes whole shards; the
// deterministic merge sorts views over the arenas without copying sets.
func (m *Miner) merge(p *pool, c mine.Collector) {
	if m.opts.Deterministic {
		total := 0
		for _, w := range p.workers {
			total += w.shard.Len()
		}
		all := make([]mine.Itemset, 0, total)
		for _, w := range p.workers {
			for i := 0; i < w.shard.Len(); i++ {
				set, sup := w.shard.Set(i)
				all = append(all, mine.Itemset{Items: set, Support: sup})
			}
		}
		sort.Slice(all, func(a, b int) bool { return mine.LessItems(all[a].Items, all[b].Items) })
		for _, s := range all {
			c.Collect(s.Items, s.Support)
		}
		return
	}
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
