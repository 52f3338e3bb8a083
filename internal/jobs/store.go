// Package jobs is the job scheduler behind `fpm serve`: a bounded FIFO
// queue of mining jobs run by a fixed pool of runner goroutines, with a
// bounded flight recorder per job (Event), the server-side latency
// histograms (JobHists), transparent retry of transient failures, and an
// append-only journal that lets a restarted server resubmit the jobs a
// crash or a graceful drain left behind (OpenJournalDir, Store.Resubmit).
//
// The package knows nothing about HTTP, Prometheus or the serving caches:
// the miner is injected as a MineFunc, internal/telemetry serves the
// store over HTTP, and internal/serve wires the real miner in.
package jobs

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"fpm/internal/failpoint"
	"fpm/internal/hdr"
	"fpm/internal/metrics"
)

// JobRequest describes one mining job submitted to `fpm serve`.
type JobRequest struct {
	// Path is the FIMI file to mine; the file must be readable by the
	// serving process.
	Path string `json:"path"`
	// Algo names an entry of fpm's kernel table ("lcm", "eclat",
	// "fpgrowth", "apriori"); every entry honours MemBudget, and all but
	// apriori, which runs as one task, split across Workers.
	Algo string `json:"algo"`
	// Patterns is the tuning-pattern list ("lex,simd", "all", "none");
	// empty means all applicable patterns.
	Patterns   string `json:"patterns,omitempty"`
	MinSupport int    `json:"min_support"`
	// Workers selects mining parallelism as in the CLI: 1 sequential,
	// 0 GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// MemBudget, when positive, mines out-of-core through the partitioned
	// two-pass path with this resident-memory budget in bytes.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// TimeoutMS, when positive, bounds the job's mining wall time in
	// milliseconds; an overrunning job is cancelled cooperatively and
	// finishes "failed" with a deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Job is one submission's lifecycle record.
type Job struct {
	ID      int        `json:"id"`
	Request JobRequest `json:"request"`
	// State is "queued", "running", "done", "failed", "cancelled" or
	// "requeued" ("requeued" only appears when a journal is configured:
	// a graceful shutdown drained the job with the intent that the next
	// boot resubmits it).
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Itemsets  int       `json:"itemsets"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Recovered marks a job resubmitted from the journal after a restart:
	// its original submission lived in a previous process.
	Recovered bool `json:"recovered,omitempty"`
	// Retries counts mine attempts beyond the first (transient failures
	// retried with backoff under StoreConfig.MaxRetries).
	Retries int `json:"retries,omitempty"`
	// ServedFromCache marks a job answered from the result cache: the
	// mine time (Finished - Started) is then the cache lookup, not a
	// mining run — load harnesses split their latency attribution on it.
	ServedFromCache bool `json:"served_from_cache,omitempty"`
	// Stats is the run's final counter snapshot (nil until the job ends).
	Stats *metrics.Snapshot `json:"stats,omitempty"`

	// cancel aborts the run in flight; set only while State == "running".
	cancel context.CancelFunc
	// events is the job's flight recorder (see Event); guarded by the
	// store's mutex and excluded from the JSON record — GET
	// /jobs/{id}/events serves it.
	events *eventRing
}

// MineResult is what a MineFunc reports for a finished job.
type MineResult struct {
	// Itemsets is the frequent-itemset count of the answer.
	Itemsets int
	// FromCache marks an answer served from the result cache without
	// mining; the store surfaces it as Job.ServedFromCache.
	FromCache bool
}

// MineFunc executes one job, recording into rec, and returns the job's
// result. ctx carries the job's cancellation and deadline; implementations
// thread it into the mining run so DELETE /jobs/{id}, per-job timeouts and
// server shutdown all unwind the kernels cooperatively. Injected so the
// store stays free of the driver's import graph (the root fpm package
// wires the real miner in internal/serve).
type MineFunc func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error)

// ErrQueueFull is returned by Submit when the job queue has no room.
var ErrQueueFull = errors.New("jobs: job queue full")

// ErrClosed is returned by Submit after Close or Shutdown.
var ErrClosed = errors.New("jobs: job store closed")

// errRequeued is the Error of a job a journaled Shutdown drained.
var errRequeued = errors.New("shutdown: requeued for restart")

// Store queues submitted jobs and runs them on a fixed pool of runner
// goroutines in strict FIFO order: the head of the queue runs as soon as
// a runner is free. The server's bounds are the runner count
// (StoreConfig.MaxConcurrent) and the queue cap (StoreConfig.QueueCap);
// a job that must fit a memory limit asks for one itself
// (JobRequest.MemBudget mines out-of-core under it).
type Store struct {
	mine MineFunc
	// onStart receives each job's fresh recorder just before mining, so
	// the server's scrape endpoints follow a run in flight (with
	// concurrent runners, the most recently started one).
	onStart func(*metrics.Recorder)

	journal    *Journal
	maxRetries int

	mu   sync.Mutex
	cond *sync.Cond
	jobs []*Job
	// running holds the jobs claimed by a runner and not yet terminal,
	// by id: Shutdown walks it instead of every job ever submitted, so its
	// lock hold time does not grow with uptime. Its size is
	// StoreStats.Running.
	running  map[int]*Job
	pending  []int // queued job ids, FIFO
	closed   bool  // queue closed; no further submissions
	aborting bool  // Shutdown in progress; queued jobs drain as cancelled
	stats    StoreStats

	// hists are the server-side latency histograms, one Record per job at
	// its terminal transition (including jobs cancelled while queued, with
	// zero mine time, so every family's count equals jobs finished).
	// Guarded by mu; Histograms() snapshots them.
	hists JobHists

	eventSink func(Event)

	wg sync.WaitGroup // runner goroutines
}

// JobHists bundles the store's per-job latency histograms, in
// nanoseconds: queue wait (Started-Submitted), mine time
// (Finished-Started) and end-to-end (Finished-Submitted). Each is
// recorded exactly once per job at its terminal transition, so the
// families' counts stay equal.
type JobHists struct {
	QueueWait hdr.Hist
	Mine      hdr.Hist
	E2E       hdr.Hist
}

// StoreStats is a consistent point-in-time view of the job store, for the
// /metrics gauges and for load harnesses watching backpressure. Queued
// and Running are instantaneous; the rest are cumulative since start.
type StoreStats struct {
	QueueCap      int    `json:"queue_cap"`
	MaxConcurrent int    `json:"max_concurrent"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Submitted     uint64 `json:"submitted"`
	Rejected      uint64 `json:"rejected"`
	Done          uint64 `json:"done"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	// CacheServed counts done jobs answered from the result cache.
	CacheServed uint64 `json:"cache_served"`
	// Retried counts mine attempts retried after a transient failure;
	// Recovered counts jobs resubmitted from the journal at startup;
	// Requeued counts jobs a graceful shutdown drained as
	// requeue-on-restart instead of cancelling.
	Retried   uint64 `json:"retried"`
	Recovered uint64 `json:"recovered"`
	Requeued  uint64 `json:"requeued"`
}

// DefaultQueueCap bounds the pending-job queue when StoreConfig.QueueCap
// is zero.
const DefaultQueueCap = 64

// StoreConfig shapes a job store.
type StoreConfig struct {
	// QueueCap bounds the pending-job queue (minimum 1); submissions
	// beyond it are rejected with ErrQueueFull. 0 means DefaultQueueCap.
	// Resubmit alone may exceed it (see there).
	QueueCap int
	// MaxConcurrent is the runner-goroutine count (minimum 1). Mining
	// parallelism inside a job (JobRequest.Workers) is independent.
	MaxConcurrent int
	// EventSink, when non-nil, receives every recorded event as it is
	// appended — the hook `fpm serve -log-json` streams NDJSON through.
	// It runs under the store's lock: keep it fast, never call back into
	// the Store.
	EventSink func(Event)
	// Journal, when non-nil, receives one WAL record per job state
	// transition (submitted/running/terminal), making the store's queue
	// recoverable across restarts: see OpenJournalDir / Resubmit. A
	// journal also changes Shutdown's drain semantics — queued jobs are
	// journaled as requeue-on-restart instead of cancelled, so a rolling
	// restart does not shed its backlog. The store appends but never
	// closes it; the owner does, after Shutdown returns.
	Journal *Journal
	// MaxRetries bounds transparent retries of a transiently failed mine
	// attempt (any error other than cancellation or deadline); 0 disables
	// retries. Retries stay inside the job's "running" state and are
	// visible as "retry" flight-recorder events and Job.Retries.
	MaxRetries int
}

// Retry backoff shape: base 25ms doubling to a 1s cap keeps a two-retry
// policy well under any interactive timeout while spacing attempts enough
// for a transient I/O fault to clear.
const (
	retryBaseDelay = 25 * time.Millisecond
	retryMaxDelay  = time.Second
)

// NewStoreWithConfig starts the runner pool described by cfg. onStart may
// be nil.
func NewStoreWithConfig(mine MineFunc, onStart func(*metrics.Recorder), cfg StoreConfig) *Store {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	st := &Store{
		mine:       mine,
		onStart:    onStart,
		journal:    cfg.Journal,
		maxRetries: max(cfg.MaxRetries, 0),
		running:    make(map[int]*Job),
		eventSink:  cfg.EventSink,
	}
	st.cond = sync.NewCond(&st.mu)
	st.stats.QueueCap = cfg.QueueCap
	st.stats.MaxConcurrent = cfg.MaxConcurrent
	st.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go st.runner()
	}
	return st
}

// Stats returns the store's current depth gauges and cumulative counters.
// The snapshot is consistent: every submitted job is counted in exactly
// one of Queued, Running, Done, Failed or Cancelled.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.Running = len(st.running)
	return s
}

// Close stops accepting jobs and waits for the queue to drain; jobs
// already queued still run to completion. Use Shutdown to abandon them
// instead.
func (st *Store) Close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.cond.Broadcast()
	st.wg.Wait()
}

// Shutdown stops accepting jobs, cancels the jobs in flight (if any),
// drains still-queued jobs without running them, and waits for the
// runner goroutines to exit. Without a journal, drained jobs are marked
// cancelled; with one they are journaled as requeue-on-restart (state
// "requeued") so the next boot resubmits them — a rolling restart keeps
// its backlog. Idempotent, and safe after Close.
func (st *Store) Shutdown() {
	st.mu.Lock()
	st.aborting = true
	st.closed = true
	var cancels []context.CancelFunc
	for _, j := range st.running {
		cancels = append(cancels, j.cancel)
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	for _, c := range cancels {
		c()
	}
	st.wg.Wait()
}

// Submit enqueues a job and returns its record in the "queued" state.
// When the queue is at capacity the submission is rejected with
// ErrQueueFull and leaves no job record behind — a rejection storm must
// not grow the store's memory.
func (st *Store) Submit(req JobRequest) (Job, error) {
	return st.submit(req, false)
}

// Resubmit enqueues, in order, the jobs OpenJournalDir recovered at
// startup. Each is Submit with the recovery provenance attached: the job
// record (and its journal trail) carries recovered:true, and StoreStats.
// Recovered counts it — so a restarted server can report exactly what a
// crash (or a requeue-on-restart drain) handed back to it.
//
// Recovered requests skip the queue-cap check: each was admitted before
// the crash, and a crash with a full queue and busy runners hands back up
// to QueueCap+MaxConcurrent of them. The queue may therefore start over
// its cap by at most MaxConcurrent jobs (more only if the previous
// process ran with a larger cap or more runners); Submit keeps answering
// ErrQueueFull until it drains below the cap. Once the resubmissions are
// journaled, the journal syncs and only then retires the generations
// recovery read: if the sync fails, the old generations stay on disk and
// the next boot replays them again, rather than losing the only durable
// record of these jobs. Replay is therefore at-least-once.
func (st *Store) Resubmit(reqs []JobRequest) []Job {
	var out []Job
	for _, req := range reqs {
		if job, err := st.submit(req, true); err == nil {
			out = append(out, job)
		}
	}
	st.journal.retire()
	return out
}

func (st *Store) submit(req JobRequest, recovered bool) (Job, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return Job{}, ErrClosed
	}
	if !recovered && len(st.pending) >= st.stats.QueueCap {
		st.stats.Rejected++
		st.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	job := &Job{ID: len(st.jobs), Request: req, State: "queued", Submitted: time.Now(),
		Recovered: recovered, events: &eventRing{}}
	st.jobs = append(st.jobs, job)
	st.pending = append(st.pending, job.ID)
	st.stats.Submitted++
	st.stats.Queued++
	if recovered {
		st.stats.Recovered++
		st.emitLocked(job, Event{Type: "submitted", Outcome: "recovered"})
	} else {
		st.emitLocked(job, Event{Type: "submitted"})
	}
	st.journal.Append(JournalRecord{Op: JournalOpSubmitted, Job: job.ID,
		TS: job.Submitted, Recovered: recovered, Req: &job.Request})
	snap := *job
	st.mu.Unlock()
	st.cond.Broadcast()
	return snap, nil
}

// Histograms returns a consistent snapshot of the per-job latency
// histograms, for the /metrics exporter and load harnesses.
func (st *Store) Histograms() JobHists {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hists
}

// finishLocked moves a job to its terminal state — "done", "failed",
// "cancelled" or "requeued" — with err (nil for "done") as its Error,
// counts it in that state's counter, folds it into the histograms, emits
// the terminal flight-recorder event and journals it. Every job path out
// of the store — run to completion, cancelled while queued, drained by
// Shutdown — funnels through here exactly once. A queued job leaves the
// Queued gauge here; a running one, run takes out of the running set.
// Jobs that never ran have no Started; their whole life was queue wait and
// their mine time is zero. Callers hold st.mu.
func (st *Store) finishLocked(job *Job, state string, err error) {
	if job.State == "queued" {
		st.stats.Queued--
	}
	job.State = state
	if err != nil {
		job.Error = err.Error()
	}
	job.Finished = time.Now()
	switch state {
	case "done":
		st.stats.Done++
	case "failed":
		st.stats.Failed++
	case "cancelled":
		st.stats.Cancelled++
	case "requeued":
		st.stats.Requeued++
	}
	started := job.Started
	if started.IsZero() {
		started = job.Finished
	}
	st.hists.QueueWait.Record(started.Sub(job.Submitted).Nanoseconds())
	st.hists.Mine.Record(job.Finished.Sub(started).Nanoseconds())
	st.hists.E2E.Record(job.Finished.Sub(job.Submitted).Nanoseconds())
	st.emitLocked(job, Event{Type: "terminal", State: job.State, Error: job.Error,
		Itemsets: job.Itemsets})
	op := JournalOpTerminal
	if job.State == "requeued" {
		op = JournalOpRequeue
	}
	st.journal.Append(JournalRecord{Op: op, Job: job.ID, TS: job.Finished, State: job.State})
}

// Get returns a copy of the job's current record.
func (st *Store) Get(id int) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id < 0 || id >= len(st.jobs) {
		return Job{}, false
	}
	return *st.jobs[id], true
}

// List returns copies of every job record, oldest first.
func (st *Store) List() []Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Job, len(st.jobs))
	for i, j := range st.jobs {
		out[i] = *j
	}
	return out
}

// Cancel aborts a job. A queued job flips to "cancelled" immediately and
// never runs; a running job has its context cancelled and reaches
// "cancelled" once the kernels unwind (the returned record may still say
// "running" — poll Get for the final state). Finished jobs are left
// untouched. The bool reports whether the id exists.
func (st *Store) Cancel(id int) (Job, bool) {
	st.mu.Lock()
	if id < 0 || id >= len(st.jobs) {
		st.mu.Unlock()
		return Job{}, false
	}
	job := st.jobs[id]
	var cancelRunning context.CancelFunc
	switch job.State {
	case "queued":
		st.finishLocked(job, "cancelled", context.Canceled)
	case "running":
		cancelRunning = job.cancel
	}
	snap := *job
	st.mu.Unlock()
	if cancelRunning != nil {
		cancelRunning()
	}
	return snap, true
}

// runner is one worker of the pool: it claims queued jobs until the
// store drains.
func (st *Store) runner() {
	defer st.wg.Done()
	for {
		job, ctx, cancel, ok := st.next()
		if !ok {
			return
		}
		st.run(ctx, job, cancel)
	}
}

// next blocks until the queue has a head for this runner (or the store
// drains; ok is then false) and claims it: in the critical section that
// pops the queue the job becomes "running", moves from the Queued gauge
// into the running set and gets the context a Cancel or Shutdown aborts
// it through. There is no window in which a popped job still looks
// queued. run cancels ctx when the job ends.
func (st *Store) next() (job *Job, ctx context.Context, cancel context.CancelFunc, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		// Skip jobs cancelled while queued; under Shutdown, drain the
		// whole queue as cancelled without running anything.
		for len(st.pending) > 0 {
			job := st.jobs[st.pending[0]]
			if job.State != "queued" {
				st.pending = st.pending[1:]
				continue
			}
			if st.aborting {
				// With a journal, drained jobs are requeue-on-restart: the
				// next boot replays them, so a rolling restart keeps its
				// backlog. Without one there is no restart story, so the
				// pre-journal semantics hold: queued jobs are cancelled.
				if st.journal != nil {
					st.finishLocked(job, "requeued", errRequeued)
				} else {
					st.finishLocked(job, "cancelled", context.Canceled)
				}
				st.pending = st.pending[1:]
				continue
			}
			break
		}
		if len(st.pending) > 0 {
			break
		}
		if st.closed {
			return nil, nil, nil, false
		}
		st.cond.Wait()
	}
	id := st.pending[0]
	st.pending = st.pending[1:]
	job = st.jobs[id]
	if job.Request.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(job.Request.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	ctx = WithEmitter(ctx, func(ev Event) { st.emitJob(id, ev) })
	job.State = "running"
	job.Started = time.Now()
	job.cancel = cancel
	st.stats.Queued--
	st.running[id] = job
	st.emitLocked(job, Event{Type: "running"})
	return job, ctx, cancel, true
}

// run mines a job next() claimed and records its terminal state.
func (st *Store) run(ctx context.Context, job *Job, cancel context.CancelFunc) {
	defer cancel()
	// job.Request is only written before the claim, so it is read here
	// without the lock.
	req := job.Request
	rec := metrics.NewRecorder()
	if st.onStart != nil {
		st.onStart(rec)
	}
	var res MineResult
	var err error
	for attempt := 0; ; attempt++ {
		// The failpoint models a transient infrastructure fault ahead of
		// the mine itself; evaluated per attempt, so FailAfter can fail
		// the first N attempts and let a retry succeed.
		if err = failpoint.Hit(failpoint.JobsMine); err == nil {
			res, err = st.mine(ctx, req, rec)
		}
		if err == nil || attempt >= st.maxRetries || !retryable(ctx, err) {
			break
		}
		st.mu.Lock()
		job.Retries = attempt + 1
		st.stats.Retried++
		st.emitLocked(job, Event{Type: "retry", Attempt: attempt + 1, Error: err.Error()})
		st.mu.Unlock()
		if !sleepCtx(ctx, retryDelay(attempt)) {
			err = ctx.Err() // cancelled or deadlined during backoff
			break
		}
	}
	snap := rec.Snapshot()

	st.mu.Lock()
	job.Itemsets = res.Itemsets
	job.ServedFromCache = res.FromCache
	job.Stats = &snap
	job.cancel = nil
	delete(st.running, job.ID)
	switch {
	case err == nil:
		if res.FromCache {
			st.stats.CacheServed++
		}
		st.finishLocked(job, "done", nil)
	case errors.Is(err, context.Canceled):
		st.finishLocked(job, "cancelled", err)
	default:
		st.finishLocked(job, "failed", err)
	}
	st.mu.Unlock()
}

// retryable classifies a mine error: anything is presumed transient and
// worth a retry except a trip of the job's own context — a cancelled or
// deadlined job must reach its terminal state, not burn its deadline
// retrying — and an error the miner marked Permanent.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var pe permanentError
	if errors.As(err, &pe) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// Permanent marks err as one no retry can clear, such as a request that
// fails validation: the job fails on its first attempt. The error's text
// is unchanged.
func Permanent(err error) error { return permanentError{err} }

type permanentError struct{ error }

func (e permanentError) Unwrap() error { return e.error }

// retryDelay is the backoff before retry attempt+1: exponential from
// retryBaseDelay, capped at retryMaxDelay, with full jitter over the upper
// half of the window so a burst of same-fault jobs does not retry in
// lockstep.
func retryDelay(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	half := int64(min(d, retryMaxDelay) / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// sleepCtx sleeps d unless ctx trips first; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
