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
//	sets, rec, err := fpm.MineAuto(db, 100)
package fpm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"fpm/internal/apriori"
	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/eclat"
	"fpm/internal/exp"
	"fpm/internal/fimi"
	"fpm/internal/fpgrowth"
	"fpm/internal/gen"
	"fpm/internal/hmine"
	"fpm/internal/lcm"
	"fpm/internal/lexorder"
	"fpm/internal/memsim"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/parallel"
	"fpm/internal/partition"
	"fpm/internal/simkern"
	"fpm/internal/trace"
	"fpm/internal/tune"
	"fpm/internal/vertical"
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
	// ShardCollector is a worker-local batched result arena.
	ShardCollector = mine.ShardCollector
	// BatchCollector is the optional Collector extension that absorbs
	// whole worker shards at merge time (see NewParallel).
	BatchCollector = mine.BatchCollector
	// Pattern is one ALSO tuning pattern flag.
	Pattern = mine.Pattern
	// PatternSet is a combination of tuning patterns.
	PatternSet = mine.PatternSet
	// Algorithm names a mining kernel.
	Algorithm = mine.Algorithm
)

// The eight ALSO tuning patterns of the paper (Table 2).
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
	HMine    = mine.HMine
	Tidset   = mine.Tidset
	Diffset  = mine.Diffset
)

// Applicable returns the patterns the paper applies to a kernel (Table 4).
func Applicable(a Algorithm) PatternSet { return mine.Applicable(a) }

// kernelFunc builds one kernel with the given patterns, an optional
// counter recorder, an optional kernel-span trace recorder and an optional
// cancellation flag; any of the three may be nil. tr must only be set for
// a miner that runs sequentially: under the scheduler the worker task
// spans own the timeline.
type kernelFunc func(PatternSet, *metrics.Recorder, *trace.Recorder, *cancel.Flag) Miner

// kernels is the one place an Algorithm becomes a Miner: NewMiner,
// MineContext, NewParallel, WithMetrics and MinePartitioned all build
// their miners through it. LCM, Eclat, FP-Growth and H-mine record their
// own counters, trace first-level subtrees and poll the cancellation flag
// at every recursion node. Apriori and the tidset/diffset vertical miners
// have no internal instrumentation: they count emissions through
// countingMiner and never poll the flag, so only the scheduler's task
// boundaries can stop them.
var kernels = map[Algorithm]kernelFunc{
	LCM: func(ps PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) Miner {
		return lcm.New(lcm.Options{Patterns: ps, Metrics: rec, Trace: tr, Cancel: cf})
	},
	Eclat: func(ps PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) Miner {
		return eclat.New(eclat.Options{Patterns: ps, Metrics: rec, Trace: tr, Cancel: cf})
	},
	FPGrowth: func(ps PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) Miner {
		return fpgrowth.New(fpgrowth.Options{Patterns: ps, Metrics: rec, Trace: tr, Cancel: cf})
	},
	// H-mine (Pei et al., ICDM'01): transactions are shared, never
	// projected; each recursion level threads hyper-links into per-item
	// queues.
	HMine: func(_ PatternSet, rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) Miner {
		return hmine.NewInstrumented(rec, tr, cf)
	},
	Apriori: func(_ PatternSet, rec *metrics.Recorder, _ *trace.Recorder, _ *cancel.Flag) Miner {
		return counted(apriori.New(), rec)
	},
	// Zaki's sparse-tidset Eclat, the sparse alternative of the P2
	// representation choice.
	Tidset: func(_ PatternSet, rec *metrics.Recorder, _ *trace.Recorder, _ *cancel.Flag) Miner {
		return counted(vertical.NewTidset(), rec)
	},
	// dEclat (Zaki & Gouda, KDD'03), whose diffsets shrink with recursion
	// depth on dense data.
	Diffset: func(_ PatternSet, rec *metrics.Recorder, _ *trace.Recorder, _ *cancel.Flag) Miner {
		return counted(vertical.NewDiffset(), rec)
	},
}

// kernel looks algo up in the kernel table.
func kernel(algo Algorithm) (kernelFunc, error) {
	k, ok := kernels[algo]
	if !ok {
		return nil, fmt.Errorf("fpm: unknown algorithm %q", algo)
	}
	return k, nil
}

// NewMiner constructs a miner for the given kernel with the given tuning
// patterns; patterns outside Applicable(algo) are ignored by the kernels.
func NewMiner(algo Algorithm, patterns PatternSet) (Miner, error) {
	k, err := kernel(algo)
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

// MineContext is Mine with cooperative cancellation: the run stops within a
// few recursion nodes of ctx being cancelled (or its deadline expiring) and
// returns a *CancelledError wrapping ctx.Err(). The LCM, Eclat, FP-Growth
// and H-mine kernels poll the cancellation flag at every recursion node;
// Apriori and the tidset/diffset miners are not internally instrumented
// and run to completion. A context that can never be cancelled costs
// nothing.
func MineContext(ctx context.Context, db *DB, algo Algorithm, patterns PatternSet, minSupport int) ([]Itemset, error) {
	k, err := kernel(algo)
	if err != nil {
		return nil, err
	}
	cf, stop := cancel.FromContext(ctx)
	defer stop()
	var sc SliceCollector
	if err := k(patterns, nil, nil, cf).Mine(db, minSupport, &sc); err != nil {
		return nil, wrapCancelled(err, nil)
	}
	return sc.Sets, nil
}

// ParallelOption configures NewParallel beyond the worker count.
type ParallelOption = parallel.Option

// ParallelCutoff sets the minimum estimated subtree weight (item
// occurrences in the projected database) for a subtree to become a
// stealable task; below it workers recurse sequentially. Zero or negative
// selects the built-in default.
func ParallelCutoff(weight int) ParallelOption { return parallel.WithCutoff(weight) }

// ParallelDeterministic makes the merged emission order canonical (by
// size, then items) and therefore run-to-run stable, at the cost of a
// sort over all results at merge time.
func ParallelDeterministic() ParallelOption { return parallel.WithDeterministicMerge(true) }

// ParallelFirstLevelOnly disables recursive task spawning, forcing the
// static first-level decomposition (one task per frequent item) even for
// kernels that support subtree stealing. Mainly an ablation/benchmark
// knob.
func ParallelFirstLevelOnly() ParallelOption { return parallel.WithFirstLevelOnly(true) }

// NewParallel wraps any kernel in task-parallel mining over a
// work-stealing worker pool. LCM and Eclat split recursively: any
// recursion subtree whose estimated work clears the cutoff may be stolen
// by a starved worker, so skewed inputs (one hot item owning most of the
// search tree) still balance. Other kernels parallelise by first-level
// decomposition over the same pool. workers <= 0 means GOMAXPROCS.
//
// The result set equals the sequential kernel's and every itemset is
// emitted in canonical (ascending item) order; emission order across
// subtrees is scheduling-dependent unless ParallelDeterministic is given.
// Results are buffered in per-worker arenas and merged on the caller's
// goroutine, so the Collector single-goroutine contract holds; collectors
// implementing mine.BatchCollector absorb whole shards without a
// per-itemset replay.
func NewParallel(workers int, algo Algorithm, patterns PatternSet, opts ...ParallelOption) (Miner, error) {
	k, err := kernel(algo)
	if err != nil {
		return nil, err
	}
	return parallel.New(workers, func() Miner { return k(patterns, nil, nil, nil) }, opts...), nil
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
	// ParallelRunStats is the scheduler section of a Snapshot.
	ParallelRunStats = metrics.ParallelStats
	// WorkerRunStat is one worker's share of a parallel run.
	WorkerRunStat = metrics.WorkerStat
	// SimRunStats is the simulated cache/CPI section of a Snapshot.
	SimRunStats = metrics.SimStats
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
// the trace-event JSON to w. Thread it through a run with ParallelTrace
// (or use WithTrace for the common one-shot case).
func NewTraceRecorder(w io.Writer) *TraceRecorder {
	return trace.NewRecorder(trace.WithOutput(w))
}

// WithTrace enables execution tracing for one observed mining run
// (WithMetrics or MinePartitioned): span timelines for every scheduler
// worker and partition phase are recorded and written to w as Chrome
// trace-event JSON when the run ends. A failing writer never interrupts
// mining — the run completes and the write error is returned once,
// alongside the full results.
func WithTrace(w io.Writer) ParallelOption {
	return parallel.WithTrace(trace.NewRecorder(trace.WithOutput(w)))
}

// ParallelTrace routes span timelines into an existing trace recorder,
// for callers that manage the recorder lifecycle themselves (call Start
// before mining, Stop after, and Flush/WriteJSON to serialise).
func ParallelTrace(tr *TraceRecorder) ParallelOption { return parallel.WithTrace(tr) }

// WithContext makes one observed run (WithMetrics, MinePartitioned or
// MinePartitionedWithConfig) cancellable: when ctx is cancelled or its
// deadline expires, the kernels unwind within a few recursion nodes, the
// scheduler drops its queued tasks, the partition passes stop at the next
// chunk boundary, and the run returns a *CancelledError wrapping ctx.Err()
// with the partial-progress Snapshot attached. A context that can never be
// cancelled (context.Background()) adds no cost.
func WithContext(ctx context.Context) ParallelOption { return parallel.WithContext(ctx) }

// ParallelMetrics routes the work-stealing scheduler's counters (tasks
// spawned/offered/stolen, steal failures, shard-merge time, per-worker
// utilization) into rec. Kernel-level counters are recorded by the inner
// miners when they are built with the same recorder (see WithMetrics).
func ParallelMetrics(rec *MetricsRecorder) ParallelOption { return parallel.WithMetrics(rec) }

// countingMiner counts the emissions of a kernel without internal
// instrumentation and adds them to the recorder when each Mine call ends:
// one call per sequential run or per first-level task on a parallel
// worker, the coarse-boundary flush the instrumented kernels follow. It
// is its own collector, so one countingMiner must not run concurrent
// Mines; the scheduler builds one per worker.
type countingMiner struct {
	Miner
	rec *metrics.Recorder
	out Collector
	n   uint64
}

// counted wraps m in a countingMiner when rec is enabled.
func counted(m Miner, rec *metrics.Recorder) Miner {
	if rec == nil {
		return m
	}
	return &countingMiner{Miner: m, rec: rec}
}

func (cm *countingMiner) Mine(db *DB, minSupport int, c Collector) error {
	cm.out, cm.n = c, 0
	err := cm.Miner.Mine(db, minSupport, cm)
	cm.rec.AddEmitted(cm.n)
	return err
}

func (cm *countingMiner) Collect(items []Item, support int) {
	cm.n++
	cm.out.Collect(items, support)
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
// included in the Snapshot.
//
// ParallelMetrics routes the run into an existing recorder (so a live
// telemetry server can scrape the counters mid-run); without it a private
// recorder is used. WithTrace / ParallelTrace additionally record the
// run's span timeline; a failing trace sink never interrupts mining — the
// results and Snapshot are returned together with the single flush error.
func WithMetrics(db *DB, algo Algorithm, patterns PatternSet, minSupport, workers int, opts ...ParallelOption) ([]Itemset, Snapshot, error) {
	k, err := kernel(algo)
	if err != nil {
		return nil, Snapshot{}, err
	}
	var po parallel.Options
	for _, fn := range opts {
		fn(&po)
	}
	rec := po.Metrics
	if rec == nil {
		rec = metrics.NewRecorder()
		opts = append(opts, parallel.WithMetrics(rec))
	}
	tr := po.Trace
	// Arm one cancellation flag per run from the WithContext option and
	// share it between the kernels (node-granular latency) and the pool
	// (task-granular draining); the watcher goroutine is joined before
	// returning.
	cf, stopWatch := cancel.FromContext(po.Ctx)
	defer stopWatch()
	if cf != nil {
		opts = append(opts, parallel.WithCancel(cf))
	}
	var m Miner
	if workers == 1 {
		m = k(patterns, rec, tr, cf)
	} else {
		m = parallel.New(workers, func() Miner { return k(patterns, rec, nil, cf) }, opts...)
	}

	var sc SliceCollector
	rec.Start(m.Name(), poolSize(workers))
	tr.Start(m.Name(), rec)
	err = m.Mine(db, minSupport, &sc)
	rec.Stop()
	tr.Stop()
	if err != nil {
		return nil, Snapshot{}, wrapCancelled(err, rec)
	}
	snap := rec.Snapshot()
	if ferr := tr.Flush(); ferr != nil {
		// Mining completed; surface the failing trace sink once, with the
		// full results still attached.
		return sc.Sets, snap, ferr
	}
	return sc.Sets, snap, nil
}

// Out-of-core mining (see internal/partition): SON-style two-pass
// partitioned mining for FIMI files larger than memory.

// PartitionSnapshot summarises one out-of-core run: chunks mined,
// candidates generated and surviving, bytes streamed and wall time per
// pass. It is the `partition` section of the Snapshot schema.
type PartitionSnapshot = metrics.PartitionStats

// MinePartitioned mines the FIMI file at path without ever holding more
// than one bounded chunk of it in memory, and returns exactly the
// itemsets Mine would return on the loaded database — in canonical order
// (by size, then items) with exact global supports — alongside the run's
// two-pass counters. Pass 1 streams the file in chunks sized to
// memBudget, mining each with the chosen kernel (through the
// work-stealing pool when workers != 1; 0 means GOMAXPROCS) at a support
// threshold scaled to the chunk's share of the database, and unions the
// locally-frequent results into a candidate trie; pass 2 re-streams the
// file to count every candidate's exact global support and filters to the
// true answer. The memory budget covers the resident chunk plus the
// kernel's working set; peak heap is bounded by it (×2 with GC headroom)
// rather than by the file size. The file must be seekable. Options are
// the NewParallel options; ParallelMetrics additionally routes the
// partition and scheduler counters into the given recorder (the returned
// PartitionSnapshot is recorded either way), and WithTrace / ParallelTrace
// record the run's span timeline — the partition phase track plus, when
// workers != 1, the per-worker scheduler tracks. A failing trace sink
// never interrupts mining: the results are returned together with the
// single flush error.
func MinePartitioned(path string, algo Algorithm, patterns PatternSet, minSupport int, memBudget int64, workers int, opts ...ParallelOption) ([]Itemset, PartitionSnapshot, error) {
	return MinePartitionedWithConfig(path, algo, patterns, minSupport, memBudget, workers, PartitionRunConfig{}, opts...)
}

// PartitionRunConfig bundles the robustness knobs of an out-of-core run:
// crash-safe checkpoint/resume and chunk-local ordering. The zero value
// disables all of them (MinePartitioned's behaviour); cancellation comes
// from the WithContext option.
type PartitionRunConfig struct {
	// Checkpoint, when non-empty, is the sidecar file where progress is
	// persisted after every chunk with an atomic temp-file + rename, so a
	// crashed (or cancelled) run loses at most the chunk in flight. It is
	// removed when the run completes. Writes are best-effort: a failing
	// write is counted in the snapshot's CheckpointsFailed and mining
	// continues with the previous sidecar intact.
	Checkpoint string
	// Resume, when true (with Checkpoint set), validates the sidecar
	// against this run's input (size + content prefix hash + transaction
	// count) and configuration (kernel, patterns, support, memory budget)
	// and skips every chunk the previous run completed. A missing, corrupt
	// or mismatched sidecar silently degrades to a fresh run.
	Resume bool
	// ChunkLex applies pattern P1 (lexicographic reordering) per pass-1
	// chunk: each resident chunk is relabeled and re-sorted by its own
	// frequency profile before mining, and candidates are mapped back to
	// the global alphabet, so the result is unchanged. See EXPERIMENTS.md
	// for when this pays.
	ChunkLex bool
}

// MinePartitionedWithConfig is MinePartitioned plus the robustness knobs of
// PartitionRunConfig; see that type for the semantics.
func MinePartitionedWithConfig(path string, algo Algorithm, patterns PatternSet, minSupport int, memBudget int64, workers int, rc PartitionRunConfig, opts ...ParallelOption) ([]Itemset, PartitionSnapshot, error) {
	k, err := kernel(algo)
	if err != nil {
		return nil, PartitionSnapshot{}, err
	}
	var po parallel.Options
	for _, fn := range opts {
		fn(&po)
	}
	rec := po.Metrics
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	tr := po.Trace
	cf, stopWatch := cancel.FromContext(po.Ctx)
	defer stopWatch()
	cfg := partition.Config{
		MemBudget:  memBudget,
		Workers:    workers,
		Cutoff:     po.Cutoff,
		Metrics:    rec,
		Trace:      tr,
		Cancel:     cf,
		Checkpoint: rc.Checkpoint,
		Resume:     rc.Resume,
		ChunkLex:   rc.ChunkLex,
	}
	// Kernel-level first-level spans apply only when chunks mine
	// sequentially; under the per-chunk pool the worker task spans own the
	// timeline.
	var ktr *trace.Recorder
	if workers == 1 {
		ktr = tr
	}
	factory := func() Miner { return k(patterns, rec, ktr, cf) }
	name := "partitioned(" + factory().Name() + ")"
	rec.Start(name, poolSize(workers))
	tr.Start(name, rec)
	var sc SliceCollector
	err = partition.Mine(path, factory, minSupport, cfg, &sc)
	rec.Stop()
	tr.Stop()
	if err != nil {
		return nil, PartitionSnapshot{}, wrapCancelled(err, rec)
	}
	snap := rec.Snapshot()
	psnap := PartitionSnapshot{MemBudget: memBudget}
	if snap.Partition != nil {
		psnap = *snap.Partition
	}
	if ferr := tr.Flush(); ferr != nil {
		return sc.Sets, psnap, ferr
	}
	return sc.Sets, psnap, nil
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

// MineAuto mines with the recommended kernel and patterns, returning the
// recommendation alongside the results.
func MineAuto(db *DB, minSupport int) ([]Itemset, Recommendation, error) {
	rec := Recommend(db, minSupport)
	sets, err := Mine(db, rec.Algorithm, rec.Patterns, minSupport)
	return sets, rec, err
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

// Machine models and simulation (see internal/memsim, internal/exp).
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

// ExperimentOptions configure the paper-reproduction harness.
type ExperimentOptions = exp.Options

// Experiment entry points: each regenerates one artifact of the paper's
// evaluation (experiment ids per DESIGN.md §4).
func PrintTable2(w io.Writer)                         { exp.Table2(w) }
func PrintTable3(w io.Writer)                         { exp.Table3(w) }
func PrintTable4(w io.Writer)                         { exp.Table4(w) }
func PrintTable5(w io.Writer)                         { exp.Table5(w) }
func PrintTable6(w io.Writer, o ExperimentOptions)    { exp.Table6(w, o) }
func PrintFigure2(w io.Writer, o ExperimentOptions)   { exp.PrintFigure2(w, o) }
func PrintFigure8(w io.Writer, o ExperimentOptions)   { exp.PrintFigure8(w, o) }
func PrintAblations(w io.Writer, o ExperimentOptions) { exp.PrintAblations(w, o) }

// PrintBaselineTimes measures and prints the untuned native kernels'
// wall-clock times on the Table 6 datasets (the paper's "no single best
// algorithm" comparison).
func PrintBaselineTimes(w io.Writer, o ExperimentOptions) { exp.PrintBaselineTimes(w, o) }

// PrintShapeChecks verifies the paper's quantitative claims against this
// reproduction and prints a PASS/FAIL table (the core of EXPERIMENTS.md).
func PrintShapeChecks(w io.Writer, o ExperimentOptions) { exp.PrintShapeChecks(w, o) }
