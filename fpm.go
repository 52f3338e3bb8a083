// Package fpm is a frequent pattern mining library built around the
// architecture-level software optimization (ALSO) tuning patterns of Wei,
// Jiang and Snir, "Programming Patterns for Architecture-Level Software
// Optimizations on Frequent Pattern Mining" (ICDE 2007).
//
// It provides three depth-first mining kernels with selectable tuning
// patterns — LCM (horizontal array database), Eclat (vertical bit-matrix)
// and FP-Growth (FP-tree) — plus an Apriori baseline, synthetic dataset
// generators matching the paper's evaluation workloads, a trace-driven
// memory-hierarchy simulator modelling the paper's two platforms, and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	db, err := fpm.ReadFIMIFile("transactions.dat")
//	if err != nil { ... }
//	sets, err := fpm.Mine(db, fpm.LCM, fpm.Applicable(fpm.LCM), 100)
//
// or let the library pick the kernel and patterns from the input's
// characteristics (the paper's §6 future work):
//
//	rec := fpm.Recommend(db, 100)
//	sets, err := fpm.Mine(db, rec.Algorithm, rec.Patterns, 100)
package fpm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/fimi"
	"fpm/internal/gen"
	"fpm/internal/kernel"
	"fpm/internal/lexorder"
	"fpm/internal/memsim"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/parallel"
	"fpm/internal/partition"
	"fpm/internal/simkern"
	"fpm/internal/trace"
	"fpm/internal/tune"
)

// Core data model (see internal/dataset).
type (
	// DB is an in-memory transactional database.
	DB = dataset.DB
	// Transaction is one row: a duplicate-free item set.
	Transaction = dataset.Transaction
	// Item is a dense non-negative item identifier.
	Item = dataset.Item
	// Stats summarises input characteristics (density, clustering, ...).
	Stats = dataset.Stats
)

// Mining API (see internal/mine).
type (
	// Miner is the common mining interface.
	Miner = mine.Miner
	// Collector receives mined itemsets.
	Collector = mine.Collector
	// Itemset is a mined itemset with its support.
	Itemset = mine.Itemset
	// ResultSet is a canonical itemset→support map for comparisons.
	ResultSet = mine.ResultSet
	// SliceCollector stores every mined itemset.
	SliceCollector = mine.SliceCollector
	// CountCollector counts itemsets without storing them.
	CountCollector = mine.CountCollector
	// Pattern is one ALSO tuning pattern flag.
	Pattern = mine.Pattern
	// PatternSet is a combination of tuning patterns.
	PatternSet = mine.PatternSet
	// Algorithm names a mining kernel.
	Algorithm = mine.Algorithm
)

// The eight ALSO tuning patterns of the paper (Table 2). The native
// kernels accept every pattern Applicable lists for them but select code
// paths only for P1, P2, FP-Growth's P4, P6.1 and P8; the simulator
// (Simulate) models all eight. DESIGN.md §2 gives the reasons.
const (
	Lex         = mine.Lex         // P1 lexicographic ordering
	Adapt       = mine.Adapt       // P2 data structure adaptation
	Aggregate   = mine.Aggregate   // P3 aggregation (supernodes)
	Compact     = mine.Compact     // P4 compaction
	PrefetchPtr = mine.PrefetchPtr // P5 prefetch pointers
	Tile        = mine.Tile        // P6/P6.1 tiling
	Prefetch    = mine.Prefetch    // P7/P7.1 software (wave-front) prefetch
	SIMD        = mine.SIMD        // P8 SIMDization
)

// The mining kernels.
const (
	LCM      = mine.LCM
	Eclat    = mine.Eclat
	FPGrowth = mine.FPGrowth
	Apriori  = mine.Apriori
)

// Applicable returns the patterns the paper applies to a kernel (Table 4).
func Applicable(a Algorithm) PatternSet { return mine.Applicable(a) }

// ParsePatterns resolves a comma-separated, case-insensitive list of
// pattern names ("lex,simd") to a PatternSet; "" is the empty set and
// "all" is Applicable(algo).
func ParsePatterns(s string, algo Algorithm) (PatternSet, error) { return mine.ParsePatterns(s, algo) }

// NewMiner constructs a miner for the given kernel with the given tuning
// patterns; patterns outside Applicable(algo) are ignored by the kernels.
func NewMiner(algo Algorithm, patterns PatternSet) (Miner, error) {
	k, err := kernel.Lookup(algo)
	if err != nil {
		return nil, err
	}
	return k(patterns, nil, nil, nil), nil
}

// Mine runs one kernel over db and returns every itemset with support >=
// minSupport.
func Mine(db *DB, algo Algorithm, patterns PatternSet, minSupport int) ([]Itemset, error) {
	m, err := NewMiner(algo, patterns)
	if err != nil {
		return nil, err
	}
	var sc SliceCollector
	if err := m.Mine(db, minSupport, &sc); err != nil {
		return nil, err
	}
	return sc.Sets, nil
}

// CancelledError reports a mining run that ended early because its context
// was cancelled or its deadline expired. Err is the context's error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) both see through the wrapper; Progress is the
// run's counter snapshot at the moment the recursion unwound — partial, but
// an honest account of the work done before the cut.
type CancelledError struct {
	Err      error
	Progress Snapshot
}

func (e *CancelledError) Error() string { return "mining cancelled: " + e.Err.Error() }

// Unwrap exposes the context error for errors.Is / errors.As.
func (e *CancelledError) Unwrap() error { return e.Err }

// wrapCancelled converts a raw context error surfacing from the kernels,
// scheduler or partition passes into a CancelledError carrying the run's
// partial-progress snapshot; other errors pass through untouched.
func wrapCancelled(err error, rec *metrics.Recorder) error {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return &CancelledError{Err: err, Progress: rec.Snapshot()}
	}
	return err
}

// ParallelOption configures one mining run beyond the worker count. The
// same options serve NewParallel, WithMetrics and MinePartitioned; only
// MinePartitioned accepts WithCheckpoint.
type ParallelOption func(*runOptions)

// runOptions is what a run's ParallelOptions set: the pool's own options
// plus the out-of-core checkpoint, which never reaches the pool.
type runOptions struct {
	pool       parallel.Options
	checkpoint string
	resume     bool
}

// newRunOptions applies opts over a run of the given worker count.
func newRunOptions(workers int, opts []ParallelOption) runOptions {
	ro := runOptions{pool: parallel.Options{Workers: workers}}
	for _, fn := range opts {
		fn(&ro)
	}
	return ro
}

// inMemory rejects a checkpoint given to an in-memory entry point, which
// would otherwise drop it silently.
func (ro runOptions) inMemory(entry string) error {
	if ro.checkpoint != "" || ro.resume {
		return fmt.Errorf("fpm: %s mines in memory; WithCheckpoint applies only to MinePartitioned", entry)
	}
	return nil
}

// NewParallel wraps any kernel in task-parallel mining over a
// work-stealing worker pool. LCM, Eclat and FP-Growth split through their
// own recursion: any recursion subtree whose estimated work clears the
// pool's fixed spawn cutoff may be stolen by a starved worker, so skewed
// inputs (one hot item owning most of the search tree) still balance.
// Apriori is level-wise and has no subtree to offer, so it runs as one
// task on one worker.
// workers <= 0 means GOMAXPROCS.
//
// The result set equals the sequential kernel's and every itemset's
// items are ascending, as each kernel emits them; emission order across
// subtrees is scheduling-dependent, so sort a listing that must be
// stable (the CLI prints every listing in canonical order).
// Results are buffered in per-worker arenas and merged on the caller's
// goroutine, so the Collector single-goroutine contract holds; collectors
// implementing mine.BatchCollector absorb whole shards without a
// per-itemset replay.
//
// A Miner has no run boundary, so a WithTrace recorder records every Mine
// call and the caller starts, stops and flushes it. WithContext cancels
// every Mine call, through a flag armed per call; WithCheckpoint is
// rejected.
func NewParallel(workers int, algo Algorithm, patterns PatternSet, opts ...ParallelOption) (Miner, error) {
	k, err := kernel.Lookup(algo)
	if err != nil {
		return nil, err
	}
	ro := newRunOptions(workers, opts)
	if err := ro.inMemory("NewParallel"); err != nil {
		return nil, err
	}
	return parallel.New(ro.pool, func() mine.Splitter { return k(patterns, nil, nil, nil) }), nil
}

// Observability (see internal/metrics): optionally-enabled run-time
// counters for native mining runs, reported through the same Snapshot
// schema the memory-hierarchy simulator uses — the reproduction's analogue
// of the hardware counters the paper profiles in Figure 2.
type (
	// Snapshot is one frozen view of a mining run's counters. Its JSON
	// encoding is the machine-readable form `fpm -stats json` emits.
	Snapshot = metrics.Snapshot
	// MetricsRecorder accumulates counters for one run; nil disables
	// recording everywhere it is threaded.
	MetricsRecorder = metrics.Recorder
)

// NewMetricsRecorder returns an enabled recorder to thread through
// WithMetrics / ParallelMetrics; call Start before mining, Stop after, and
// Snapshot to freeze the totals.
func NewMetricsRecorder() *MetricsRecorder { return metrics.NewRecorder() }

// TraceRecorder records one run's span timeline — scheduler tasks, worker
// idle gaps, steal markers, kernel first-level subtrees, partition phases
// and chunks, plus counter series sampled from the run's MetricsRecorder —
// and serialises it as Chrome trace-event JSON loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. A nil *TraceRecorder is
// the disabled recorder everywhere it is threaded.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an enabled trace recorder whose Flush writes
// the trace-event JSON to w. Thread it through a run with WithTrace.
func NewTraceRecorder(w io.Writer) *TraceRecorder {
	return trace.NewRecorder(w)
}

// WithTrace records a run's span timelines — every scheduler worker, the
// kernel's first-level subtrees on a sequential run and every partition
// phase — into tr. WithMetrics and MinePartitioned start, stop and flush
// tr around the run; a failing writer never interrupts mining — the run
// completes and the flush error is returned once, alongside the full
// results. A NewParallel caller starts, stops and flushes tr itself.
func WithTrace(tr *TraceRecorder) ParallelOption { return func(o *runOptions) { o.pool.Trace = tr } }

// WithContext makes a run cancellable: when ctx is cancelled or its
// deadline expires, the kernels unwind within a few recursion nodes, the
// scheduler drops its queued tasks and the partition passes stop at the
// next chunk boundary. WithMetrics and MinePartitioned then return a
// *CancelledError wrapping ctx.Err() with the partial-progress Snapshot
// attached. A NewParallel Miner has no run boundary, so it arms a flag
// from ctx for each Mine call and returns ctx.Err() from every call after
// the cut. Arming registers a callback on ctx and starts no goroutine; a
// context that can never be cancelled (context.Background()) adds no
// cost.
func WithContext(ctx context.Context) ParallelOption { return func(o *runOptions) { o.pool.Ctx = ctx } }

// ParallelMetrics routes the work-stealing scheduler's counters (tasks
// spawned/offered/stolen, steal failures, shard-merge time, per-worker
// utilization) into rec. Kernel-level counters are recorded by the inner
// miners when they are built with the same recorder (see WithMetrics).
func ParallelMetrics(rec *MetricsRecorder) ParallelOption {
	return func(o *runOptions) { o.pool.Metrics = rec }
}

// poolSize is the worker count a run reports in its Snapshot: 0 for a
// sequential run (workers == 1), GOMAXPROCS for workers <= 0.
func poolSize(workers int) int {
	switch {
	case workers == 1:
		return 0
	case workers <= 0:
		return runtime.GOMAXPROCS(0)
	default:
		return workers
	}
}

// WithMetrics mines db with run-time counters enabled and returns the run's
// Snapshot alongside the results — the native-run analogue of Simulate's
// per-phase report (use SimReport.Snapshot to view a simulation through the
// same schema). Every kernel of the table is accepted. workers == 1 mines
// sequentially; any other value mines through the work-stealing pool
// exactly like NewParallel (0 means GOMAXPROCS), with scheduler counters
// included in the Snapshot. WithContext makes the run cancellable, so
// workers == 1 with WithContext is the cancellable form of Mine.
//
// ParallelMetrics routes the run into an existing recorder (so a live
// telemetry server can scrape the counters mid-run); without it a private
// recorder is used. WithTrace additionally records the run's span
// timeline; a failing trace sink never interrupts mining — the results
// and Snapshot are returned together with the single flush error.
// WithCheckpoint is rejected.
func WithMetrics(db *DB, algo Algorithm, patterns PatternSet, minSupport, workers int, opts ...ParallelOption) ([]Itemset, Snapshot, error) {
	ro := newRunOptions(workers, opts)
	if err := ro.inMemory("WithMetrics"); err != nil {
		return nil, Snapshot{}, err
	}
	return observe(algo, patterns, workers, ro.pool, func(newKernel func() mine.Splitter, po parallel.Options) (string, func(Collector) error) {
		var m Miner
		if workers == 1 {
			m = newKernel()
		} else {
			m = parallel.New(po, newKernel)
		}
		return m.Name(), func(c Collector) error { return m.Mine(db, minSupport, c) }
	})
}

// observe is the one driver behind WithMetrics and MinePartitioned. It
// resolves algo, completes po (supplying a private recorder when
// ParallelMetrics is absent) and arms one cancellation flag from
// WithContext, shared by the kernels (node-granular latency) and the pool
// or partition passes; the flag's context callback is released before
// observe returns. setup receives a kernel builder that records into the
// run's recorder, polls the flag and traces first-level subtrees on
// sequential runs (under a pool the worker task spans own the timeline),
// plus the completed options; it returns the run's name and body. The body
// runs between the recorder's and the trace's Start/Stop. A context error
// becomes a *CancelledError; a failing trace sink is returned once,
// alongside the complete results and Snapshot.
func observe(algo Algorithm, patterns PatternSet, workers int, po parallel.Options,
	setup func(newKernel func() mine.Splitter, po parallel.Options) (string, func(Collector) error)) ([]Itemset, Snapshot, error) {
	k, err := kernel.Lookup(algo)
	if err != nil {
		return nil, Snapshot{}, err
	}
	if po.Metrics == nil {
		po.Metrics = metrics.NewRecorder()
	}
	rec, tr := po.Metrics, po.Trace
	cf, stopWatch := cancel.FromContext(po.Ctx)
	defer stopWatch()
	po.Cancel = cf
	var ktr *trace.Recorder
	if workers == 1 {
		ktr = tr
	}
	name, body := setup(func() mine.Splitter { return k(patterns, rec, ktr, cf) }, po)

	var sc SliceCollector
	rec.Start(name, poolSize(workers))
	tr.Start(name, rec)
	err = body(&sc)
	rec.Stop()
	tr.Stop()
	if err != nil {
		return nil, Snapshot{}, wrapCancelled(err, rec)
	}
	snap := rec.Snapshot()
	return sc.Sets, snap, tr.Flush()
}

// Out-of-core mining (see internal/partition): SON-style two-pass
// partitioned mining for FIMI files larger than memory.

// PartitionSnapshot summarises one out-of-core run: chunks mined,
// candidates generated and surviving, bytes streamed and wall time per
// pass. It is the `partition` section of the Snapshot schema.
type PartitionSnapshot = metrics.PartitionStats

// WithCheckpoint makes a MinePartitioned run crash-safe. Progress is
// persisted to the sidecar file at path after every chunk with an atomic
// temp-file + rename, so a crashed (or cancelled) run loses at most the
// chunk in flight; the sidecar is removed when the run completes. Writes
// are best-effort: a failing write is counted in the snapshot's
// CheckpointsFailed and mining continues with the previous sidecar intact.
//
// Only resume reads a sidecar back: it validates the sidecar against this
// run's input (size + content prefix hash + transaction count) and
// configuration (kernel, patterns, support, memory budget) and skips every
// chunk the previous run completed. A missing, corrupt or mismatched
// sidecar silently degrades to a fresh run. Resuming stays an explicit
// choice because the input identity is only sampled, so a changed file of
// the same size and prefix would pass it.
func WithCheckpoint(path string, resume bool) ParallelOption {
	return func(o *runOptions) { o.checkpoint, o.resume = path, resume }
}

// MinePartitioned mines the FIMI file at path without ever holding more
// than memBudget's share of it in memory, and returns exactly the
// itemsets Mine would return on the loaded database — in canonical order
// (by size, then items) with exact global supports — alongside the run's
// two-pass counters. Pass 1 streams the file in chunks and mines each
// with the chosen kernel at a support threshold scaled to the chunk's
// share of the database, on one work-stealing pool of workers (0 means
// GOMAXPROCS) that mines up to workers chunks at once, each sized to
// memBudget/(8·workers) — fewer and larger where smaller chunks would drop
// the scaled threshold below 4; it unions the locally-frequent results
// into a candidate trie. Pass 2 re-streams the file to count every candidate's
// exact global support and filters to the true answer. The memory budget covers the resident chunk plus the
// kernel's working set; peak heap is bounded by it (×2 with GC headroom)
// rather than by the file size. The file must be seekable.
//
// ParallelMetrics additionally routes the partition and scheduler counters
// into the given recorder (the returned PartitionSnapshot is recorded
// either way), WithTrace records the run's span timeline — the partition
// phase track plus, with more than one worker, the scheduler tracks —
// and WithCheckpoint persists progress for a later resume. A failing trace
// sink never interrupts mining: the results are returned together with
// the single flush error.
func MinePartitioned(path string, algo Algorithm, patterns PatternSet, minSupport int, memBudget int64, workers int, opts ...ParallelOption) ([]Itemset, PartitionSnapshot, error) {
	ro := newRunOptions(workers, opts)
	sets, snap, err := observe(algo, patterns, workers, ro.pool, func(newKernel func() mine.Splitter, po parallel.Options) (string, func(Collector) error) {
		cfg := partition.Config{MemBudget: memBudget, Pool: po, Checkpoint: ro.checkpoint, Resume: ro.resume}
		return "partitioned(" + newKernel().Name() + ")", func(c Collector) error {
			return partition.Mine(path, newKernel, minSupport, cfg, c)
		}
	})
	psnap := PartitionSnapshot{MemBudget: memBudget}
	if snap.Partition != nil {
		psnap = *snap.Partition
	}
	return sets, psnap, err
}

// Recommendation re-exports the autotuner's output type.
type Recommendation = tune.Recommendation

// Recommend selects a kernel and pattern set for the input's measured
// characteristics, targeting the M1 machine model — the paper's §6 future
// work made executable. Use RecommendFor to target another machine.
func Recommend(db *DB, minSupport int) Recommendation {
	return tune.Recommend(dataset.ComputeStats(db), minSupport, memsim.M1())
}

// RecommendFor is Recommend against an explicit machine model.
func RecommendFor(db *DB, minSupport int, cfg MachineConfig) Recommendation {
	return tune.Recommend(dataset.ComputeStats(db), minSupport, cfg)
}

// ComputeStats scans the database and returns its characteristics.
func ComputeStats(db *DB) Stats { return dataset.ComputeStats(db) }

// Lexicographic ordering utilities (pattern P1 as a standalone transform).
type Ordering = lexorder.Ordering

// LexOrder returns the database in the paper's Table 1 lexicographic
// layout together with the item relabeling.
func LexOrder(db *DB) (*DB, *Ordering) { return lexorder.Apply(db) }

// FIMI-format I/O.
var (
	// ReadFIMI parses the FIMI workshop flat format from r.
	ReadFIMI = fimi.Read
	// WriteFIMI writes db to w in FIMI format.
	WriteFIMI = fimi.Write
	// ReadFIMIFile loads a FIMI file from disk.
	ReadFIMIFile = fimi.ReadFile
	// WriteFIMIFile stores db to disk in FIMI format.
	WriteFIMIFile = fimi.WriteFile
)

// Synthetic workload generation (see internal/gen).
type (
	// QuestConfig parameterises the IBM Quest generator (TxxIyyDzzz).
	QuestConfig = gen.QuestConfig
	// CorpusConfig parameterises the document-corpus generators.
	CorpusConfig = gen.CorpusConfig
	// NamedDataset is one of the paper's Table 6 evaluation datasets.
	NamedDataset = gen.NamedDataset
)

// GenerateQuest runs the Quest synthetic generator.
func GenerateQuest(cfg QuestConfig) *DB { return gen.Quest(cfg) }

// ParseQuestName converts a canonical TxxIyyDzzz[K|M] dataset name (the
// FIMI naming convention, e.g. "T60I10D300K") into a QuestConfig.
var ParseQuestName = gen.ParseQuestName

// GenerateCorpus runs the document-corpus generator.
func GenerateCorpus(cfg CorpusConfig) *DB { return gen.Corpus(cfg) }

// Table6Datasets generates the paper's four evaluation datasets at the
// given scale (1.0 = the paper's sizes).
func Table6Datasets(scale float64, seed int64) []NamedDataset { return gen.Table6(scale, seed) }

// Machine models and simulation (see internal/memsim).
type MachineConfig = memsim.Config

// M1 returns the Pentium D 830 machine model (paper Table 5).
func M1() MachineConfig { return memsim.M1() }

// M2 returns the Athlon 64 X2 4200+ machine model (paper Table 5).
func M2() MachineConfig { return memsim.M2() }

// Simulation of kernels on modelled hardware (see internal/simkern).
type (
	// SimReport is the outcome of one instrumented kernel run: cycles,
	// instructions and miss counts per kernel phase.
	SimReport = simkern.Report
	// SimPhase is one kernel function's accounting (the Figure 2
	// granularity).
	SimPhase = simkern.Phase
)

// Simulate replays the instrumented kernel for algo over db on the given
// machine model, honouring the tuning patterns, and returns the per-phase
// cycle accounting. Only the three studied kernels are instrumented.
func Simulate(algo Algorithm, db *DB, minSupport int, patterns PatternSet, cfg MachineConfig) (SimReport, error) {
	switch algo {
	case LCM:
		return simkern.LCM(db, minSupport, patterns, cfg, simkern.LCMOptions{MaxColumns: 200}), nil
	case Eclat:
		return simkern.Eclat(db, minSupport, patterns, cfg, simkern.EclatOptions{}), nil
	case FPGrowth:
		return simkern.FPGrowth(db, minSupport, patterns, cfg, simkern.FPGrowthOptions{}), nil
	default:
		return SimReport{}, fmt.Errorf("fpm: no instrumented kernel for %q", algo)
	}
}
