// Package metrics is the mining observability layer: cheap, optionally
// enabled run-time counters for the real (non-simulated) kernels, unified
// with the memory-hierarchy simulator's cache/CPI statistics under one
// Snapshot schema. The paper chooses its ALSO patterns by reading hardware
// counters (Figure 2 profiles each kernel's CPI and cache/TLB misses before
// tuning); this package is the reproduction's equivalent instrument for
// native runs, so scheduler and kernel changes can be judged by counted
// work — nodes expanded, supports counted, tasks stolen, worker
// utilization — instead of wall-clock guesswork.
//
// The design splits recording in two tiers so the enabled path stays cheap
// and the disabled path is free:
//
//   - Local is a per-goroutine block of plain (non-atomic) counters. Every
//     increment is a nil-check plus an add, and a nil *Local (metrics
//     disabled) makes each increment a single predictable branch — the
//     kernels' hot recursion paths pay nothing else. Each kernel state, and
//     each stolen task, owns one Local.
//   - Recorder is the shared per-run sink. Locals are flushed into it with
//     a handful of atomic adds at coarse boundaries (end of a Mine call,
//     end of a stolen task), and infrequent scheduler events (task spawns,
//     steals, steal failures) hit it directly. All Recorder methods are
//     nil-safe: a nil *Recorder is the disabled sink.
//
// Snapshot freezes a Recorder into the wire schema shared by simulated and
// real runs: `fpm -stats json` emits it, EXPERIMENTS.md trajectories can
// consume it, and internal/simkern adapts its Report onto the same type.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Local is a per-goroutine counter block. It is not safe for concurrent
// use: each mining state (and each stolen subtree task) owns exactly one
// and flushes it into the shared Recorder when it finishes. All methods are
// nil-safe; a nil *Local is the disabled no-op sink the hot paths
// nil-check.
type Local struct {
	Nodes    uint64 // search-tree nodes expanded
	Supports uint64 // support values computed
	Emitted  uint64 // frequent itemsets emitted
	Prunes   uint64 // candidate extensions pruned (support < minsup)
}

// Node records one expanded search-tree node.
func (l *Local) Node() {
	if l != nil {
		l.Nodes++
	}
}

// Support records n support countings.
func (l *Local) Support(n int) {
	if l != nil {
		l.Supports += uint64(n)
	}
}

// Emit records one emitted frequent itemset.
func (l *Local) Emit() {
	if l != nil {
		l.Emitted++
	}
}

// Prune records one pruned candidate extension.
func (l *Local) Prune() {
	if l != nil {
		l.Prunes++
	}
}

// WorkerStat is one parallel worker's share of a run.
type WorkerStat struct {
	ID        int     `json:"id"`
	Tasks     uint64  `json:"tasks"`
	BusyNanos int64   `json:"busy_ns"`
	Util      float64 `json:"utilization"` // BusyNanos / run wall time
}

// Recorder accumulates one run's counters. It is safe for concurrent use:
// kernel goroutines flush Locals into it and the scheduler records task
// events directly. All methods are nil-safe, so a nil *Recorder threads
// through kernels and scheduler as the zero-cost disabled sink.
type Recorder struct {
	// kernel/workers/start are guarded by mu: Start may race with
	// Snapshot/Running when a telemetry server scrapes the recorder from
	// HTTP goroutines while the run begins.
	kernel  string
	workers int
	start   time.Time
	wall    atomic.Int64

	nodes    atomic.Uint64
	supports atomic.Uint64
	emitted  atomic.Uint64
	prunes   atomic.Uint64

	tasksSpawned  atomic.Uint64
	tasksOffered  atomic.Uint64
	tasksStolen   atomic.Uint64
	stealFailures atomic.Uint64
	workerPanics  atomic.Uint64
	mergeNanos    atomic.Int64

	chunksMined   atomic.Uint64
	chunksSkipped atomic.Uint64
	ckptsWritten  atomic.Uint64
	ckptsFailed   atomic.Uint64
	candGenerated atomic.Uint64
	candSurviving atomic.Uint64
	bytesPass1    atomic.Int64
	bytesPass2    atomic.Int64
	pass1Nanos    atomic.Int64
	pass2Nanos    atomic.Int64
	memBudget     atomic.Int64
	inputBytes    atomic.Int64

	mu          sync.Mutex
	workerStats []WorkerStat
}

// NewRecorder returns an enabled Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether r records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// NewLocal returns a fresh Local for one mining goroutine, or nil when the
// recorder is disabled (so kernel hot paths skip on a nil-check).
func (r *Recorder) NewLocal() *Local {
	if r == nil {
		return nil
	}
	return &Local{}
}

// Flush adds a Local's counts into the recorder. Safe to call with either
// receiver or argument nil.
func (r *Recorder) Flush(l *Local) {
	if r == nil || l == nil {
		return
	}
	if l.Nodes != 0 {
		r.nodes.Add(l.Nodes)
	}
	if l.Supports != 0 {
		r.supports.Add(l.Supports)
	}
	if l.Emitted != 0 {
		r.emitted.Add(l.Emitted)
	}
	if l.Prunes != 0 {
		r.prunes.Add(l.Prunes)
	}
	*l = Local{}
}

// Start stamps the run's identity and start time. kernel is the miner's
// Name(); workers is 0 for sequential runs.
func (r *Recorder) Start(kernel string, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.kernel = kernel
	r.workers = workers
	r.start = time.Now()
	r.mu.Unlock()
	r.wall.Store(0)
}

// Stop freezes the wall time.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	start := r.start
	r.mu.Unlock()
	r.wall.Store(int64(time.Since(start)))
}

// TaskSpawned records one task accepted by the scheduler (seeded or
// offered-and-taken).
func (r *Recorder) TaskSpawned() {
	if r != nil {
		r.tasksSpawned.Add(1)
	}
}

// TaskOffered records one subtree offered to the scheduler (accepted or
// not). Kernels gate offers on Spawner.WouldSteal, so this sits off the hot
// path.
func (r *Recorder) TaskOffered() {
	if r != nil {
		r.tasksOffered.Add(1)
	}
}

// TaskStolen records one task taken from another worker's deque.
func (r *Recorder) TaskStolen() {
	if r != nil {
		r.tasksStolen.Add(1)
	}
}

// StealFailure records one full victim scan that found no task.
func (r *Recorder) StealFailure() {
	if r != nil {
		r.stealFailures.Add(1)
	}
}

// WorkerPanic records one task panic recovered by a pool worker.
func (r *Recorder) WorkerPanic() {
	if r != nil {
		r.workerPanics.Add(1)
	}
}

// AddMergeTime accumulates shard-merge wall time.
func (r *Recorder) AddMergeTime(d time.Duration) {
	if r != nil {
		r.mergeNanos.Add(int64(d))
	}
}

// ChunkMined records one partition chunk mined during the out-of-core
// candidate pass. Like all partition counters this is a coarse per-chunk
// event, so it hits the shared recorder directly.
func (r *Recorder) ChunkMined() {
	if r != nil {
		r.chunksMined.Add(1)
	}
}

// ChunkSkipped records one pass-1 chunk skipped because a resumed
// checkpoint had already mined it.
func (r *Recorder) ChunkSkipped() {
	if r != nil {
		r.chunksSkipped.Add(1)
	}
}

// CheckpointWritten records one checkpoint sidecar persisted atomically.
func (r *Recorder) CheckpointWritten() {
	if r != nil {
		r.ckptsWritten.Add(1)
	}
}

// CheckpointFailed records one checkpoint write that failed; the mine
// continues (checkpoints are best-effort) with the previous sidecar intact.
func (r *Recorder) CheckpointFailed() {
	if r != nil {
		r.ckptsFailed.Add(1)
	}
}

// AddCandidates records n distinct locally-frequent itemsets entering the
// candidate union during pass 1.
func (r *Recorder) AddCandidates(n uint64) {
	if r != nil && n != 0 {
		r.candGenerated.Add(n)
	}
}

// AddSurvivors records n candidates whose exact global support cleared
// minSupport in pass 2.
func (r *Recorder) AddSurvivors(n uint64) {
	if r != nil && n != 0 {
		r.candSurviving.Add(n)
	}
}

// AddStreamedBytes records n bytes read from secondary storage during the
// given out-of-core pass (1 = candidate generation, including its
// parse-free sizing scan; 2 = exact recount).
func (r *Recorder) AddStreamedBytes(pass int, n int64) {
	if r == nil || n == 0 {
		return
	}
	if pass <= 1 {
		r.bytesPass1.Add(n)
	} else {
		r.bytesPass2.Add(n)
	}
}

// AddPassTime accumulates wall time spent in the given out-of-core pass.
func (r *Recorder) AddPassTime(pass int, d time.Duration) {
	if r == nil {
		return
	}
	if pass <= 1 {
		r.pass1Nanos.Add(int64(d))
	} else {
		r.pass2Nanos.Add(int64(d))
	}
}

// SetMemBudget records the configured out-of-core memory budget.
func (r *Recorder) SetMemBudget(n int64) {
	if r != nil {
		r.memBudget.Store(n)
	}
}

// SetInputBytes records the on-disk size of the mined file; the telemetry
// progress endpoint derives completion fractions from it.
func (r *Recorder) SetInputBytes(n int64) {
	if r != nil {
		r.inputBytes.Store(n)
	}
}

// Running reports whether the run is live: Start has been called and Stop
// has not yet frozen the wall time. A nil recorder is never running.
func (r *Recorder) Running() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	started := !r.start.IsZero()
	r.mu.Unlock()
	return started && r.wall.Load() == 0
}

// AddWorker records one worker's totals at pool shutdown. When the same
// recorder observes several pool runs — a parallel Miner mined more than
// once — stats for the same worker ID accumulate into one entry, so the
// snapshot stays one row per worker slot.
func (r *Recorder) AddWorker(s WorkerStat) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.workerStats {
		if r.workerStats[i].ID == s.ID {
			r.workerStats[i].Tasks += s.Tasks
			r.workerStats[i].BusyNanos += s.BusyNanos
			return
		}
	}
	r.workerStats = append(r.workerStats, s)
}

// Snapshot freezes the recorder's current totals. The recorder may keep
// accumulating afterwards; utilization is computed against the wall time
// frozen by Stop (or time-so-far when Stop has not run).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{SchemaVersion: SnapshotSchemaVersion}
	}
	r.mu.Lock()
	kernel, workers, start := r.kernel, r.workers, r.start
	r.mu.Unlock()
	wall := r.wall.Load()
	if wall == 0 && !start.IsZero() {
		wall = int64(time.Since(start))
	}
	s := Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Kernel:        kernel,
		Workers:       workers,
		WallNanos:     wall,
		Nodes:         r.nodes.Load(),
		Supports:      r.supports.Load(),
		Emitted:       r.emitted.Load(),
		Prunes:        r.prunes.Load(),
	}
	if workers > 1 || r.tasksSpawned.Load() > 0 {
		ps := &ParallelStats{
			TasksSpawned:  r.tasksSpawned.Load(),
			TasksOffered:  r.tasksOffered.Load(),
			TasksStolen:   r.tasksStolen.Load(),
			StealFailures: r.stealFailures.Load(),
			WorkerPanics:  r.workerPanics.Load(),
			MergeNanos:    r.mergeNanos.Load(),
		}
		r.mu.Lock()
		ps.Workers = append([]WorkerStat(nil), r.workerStats...)
		r.mu.Unlock()
		for i := range ps.Workers {
			if wall > 0 {
				ps.Workers[i].Util = float64(ps.Workers[i].BusyNanos) / float64(wall)
			}
		}
		s.Parallel = ps
	}
	if r.chunksMined.Load() > 0 || r.bytesPass1.Load() > 0 {
		s.Partition = &PartitionStats{
			Chunks:              r.chunksMined.Load(),
			ChunksSkipped:       r.chunksSkipped.Load(),
			CheckpointsWritten:  r.ckptsWritten.Load(),
			CheckpointsFailed:   r.ckptsFailed.Load(),
			CandidatesGenerated: r.candGenerated.Load(),
			CandidatesSurviving: r.candSurviving.Load(),
			BytesPass1:          r.bytesPass1.Load(),
			BytesPass2:          r.bytesPass2.Load(),
			Pass1Nanos:          r.pass1Nanos.Load(),
			Pass2Nanos:          r.pass2Nanos.Load(),
			MemBudget:           r.memBudget.Load(),
			InputBytes:          r.inputBytes.Load(),
		}
	}
	return s
}
