// Package serve wires the real mining library into the job scheduler
// (internal/jobs) and serves it over the telemetry HTTP server: it owns
// the MineFunc that executes submitted jobs through the observed in-memory
// and partitioned paths, the serving caches that make repeated jobs
// cheap, and the admission-control hooks that keep N concurrent jobs under
// one memory budget. Split out of cmd/fpm so that the `fpm serve`
// subcommand, the repository benchmark's in-process serve workloads and
// this package's serve gate tests all host an identical server — the
// gates exercise exactly the production wiring, not a test double.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fpm"
	"fpm/internal/durable"
	"fpm/internal/jobs"
	"fpm/internal/kernel"
	"fpm/internal/servecache"
	"fpm/internal/telemetry"
)

// Default byte caps for the serving caches when the caller does not size
// them. Both shrink under a configured memory budget (see NewInstance).
const (
	DefaultDatasetCacheBytes = 256 << 20
	DefaultResultCacheBytes  = 64 << 20
)

// footprintFloor is the minimum per-job footprint estimate: even a tiny
// file costs parse buffers, per-worker collectors and scheduler state.
const footprintFloor = 1 << 20

// DefaultMaxRetries is how many times a transiently failed mine attempt
// is retried when the caller does not choose (Config.MaxRetries == 0).
const DefaultMaxRetries = 2

// snapshotFileName names the result-cache snapshot sidecar in the state
// dir; the job journal's generation files live beside it (see
// jobs.OpenJournalDir).
const snapshotFileName = "results.snap"

// Config shapes one serve instance.
type Config struct {
	// QueueCap bounds the pending-job queue; submissions beyond it are
	// rejected with HTTP 429. Zero means jobs.DefaultQueueCap.
	QueueCap int
	// MaxConcurrent is the job-runner pool size; zero means 1 (the
	// pre-multi-tenant behaviour). Mining parallelism inside a job
	// (JobRequest.Workers) is independent.
	MaxConcurrent int
	// MemBudget, when positive, is the global memory budget in bytes:
	// a job whose estimated footprint does not fit alongside the running
	// jobs and the cached state waits in queue instead of OOMing the
	// process. Zero disables admission control.
	MemBudget int64
	// DatasetCacheBytes / ResultCacheBytes cap the serving caches; zero
	// picks the defaults (bounded further by MemBudget when set).
	DatasetCacheBytes int64
	ResultCacheBytes  int64
	// DisableDatasetCache / DisableResultCache turn a cache off entirely —
	// the levers behind the cache-on/cache-off comparisons.
	DisableDatasetCache bool
	DisableResultCache  bool
	// EventLog, when non-nil, streams every flight-recorder event to it
	// as NDJSON (one JSON object per line) as jobs move through the
	// store — the writer behind `fpm serve -log-json`. The write happens
	// under the store's lock, so a blocking writer backpressures the
	// scheduler; leave nil for latency-sensitive hosting and read
	// timelines from GET /jobs/{id}/events instead.
	EventLog io.Writer
	// StateDir, when non-empty, makes the instance durable: the result
	// cache is periodically snapshotted there (and restored at startup,
	// so a hot key is hot again after a kill -9), and every job state
	// transition is journaled so a restart can requeue the jobs a crash
	// — or a graceful requeue-on-restart drain — left behind. Corrupt or
	// stale state degrades to a cold start, never a failed boot; an
	// unusable directory (cannot create or open files) disables
	// durability and is reported in Instance.DurabilityErr.
	StateDir string
	// PersistInterval paces the background snapshot writer; zero means
	// servecache.DefaultPersistInterval.
	PersistInterval time.Duration
	// MaxRetries bounds transparent retries of transiently failed mine
	// attempts: 0 means DefaultMaxRetries, negative disables retries.
	MaxRetries int
}

// Instance is one hosted serving stack: HTTP surface, job scheduler, the
// caches they share, the footprint learner feeding admission, and — when
// Config.StateDir is set — the durability pair (snapshot persister and
// job journal).
type Instance struct {
	Server  *telemetry.Server
	Store   *jobs.Store
	Caches  *servecache.Caches
	Learner *FootprintLearner
	// Persister snapshots the result cache to the state dir; nil when the
	// instance is not durable (no StateDir, or the result cache is
	// disabled).
	Persister *servecache.Persister
	// Journal receives job state transitions; nil when not durable.
	Journal *jobs.Journal
	// Recovered are the jobs resubmitted from previous generations'
	// journals at startup, in resubmission order.
	Recovered []jobs.Job
	// DurabilityErr reports an environmental failure that disabled (part
	// of) durability at startup, such as an uncreatable state dir or a
	// journal that cannot be opened. Data corruption is NOT reported here:
	// a corrupt snapshot or journal degrades to a cold start by design
	// (visible in the fpm_cache_persist_* metrics instead).
	DurabilityErr error
}

// Close shuts the instance down in durability order: drain the store
// (with a journal, queued jobs are journaled as requeue-on-restart), take
// the final result-cache snapshot, close the journal, then drain the
// HTTP server.
func (inst *Instance) Close(ctx context.Context) error {
	inst.Store.Shutdown()
	if inst.Persister != nil {
		inst.Persister.Close()
	}
	var firstErr error
	if inst.Journal != nil {
		if err := inst.Journal.Close(); err != nil {
			firstErr = err
		}
	}
	if err := inst.Server.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// NewInstance builds the full serving stack described by cfg.
func NewInstance(cfg Config) *Instance {
	caches := &servecache.Caches{}
	if !cfg.DisableDatasetCache {
		b := cfg.DatasetCacheBytes
		if b <= 0 {
			b = DefaultDatasetCacheBytes
		}
		// Cached state is charged against the memory budget, so never let a
		// cache cap alone exceed half the budget — otherwise cold cached
		// bytes could crowd out admission before shedding kicks in.
		if cfg.MemBudget > 0 && b > cfg.MemBudget/2 {
			b = cfg.MemBudget / 2
		}
		caches.Datasets = servecache.NewDatasetCache(b)
	}
	if !cfg.DisableResultCache {
		b := cfg.ResultCacheBytes
		if b <= 0 {
			b = DefaultResultCacheBytes
		}
		if cfg.MemBudget > 0 && b > cfg.MemBudget/4 {
			b = cfg.MemBudget / 4
		}
		caches.Results = servecache.NewResultCache(b)
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	srv := telemetry.NewServer()
	learner := NewFootprintLearner()
	inst := &Instance{Server: srv, Caches: caches, Learner: learner}

	// Durability setup. Everything here degrades: a corrupt snapshot or
	// journal means a cold start, an unusable directory means a
	// non-durable instance with DurabilityErr set — never a failed boot
	// and never a crash.
	var pending []jobs.JobRequest
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			inst.DurabilityErr = fmt.Errorf("serve: state dir: %w", err)
		} else {
			var restored servecache.RestoreStats
			corrupt := false
			snapPath := filepath.Join(cfg.StateDir, snapshotFileName)
			if caches.Results != nil {
				if data, err := os.ReadFile(snapPath); err == nil {
					if restored, err = caches.Results.RestoreSnapshot(data); err != nil {
						corrupt = true // cold start; counted, not fatal
					}
				} else if !errors.Is(err, fs.ErrNotExist) {
					inst.DurabilityErr = fmt.Errorf("serve: snapshot: %w", err)
				}
				inst.Persister = servecache.NewPersister(caches.Results, snapPath, cfg.PersistInterval)
				inst.Persister.NoteRestore(restored, corrupt)
			}
			jnl, reqs, err := jobs.OpenJournalDir(cfg.StateDir)
			if err != nil {
				inst.DurabilityErr = fmt.Errorf("serve: journal: %w", err)
			} else {
				inst.Journal, pending = jnl, reqs
			}
		}
	}

	var sink func(jobs.Event)
	if cfg.EventLog != nil {
		// The sink runs under the store's lock (see StoreConfig.EventSink),
		// which is also what serializes the encoder.
		enc := json.NewEncoder(cfg.EventLog)
		sink = func(ev jobs.Event) { _ = enc.Encode(ev) }
	}
	store := jobs.NewStoreWithConfig(inst.mineJob, srv.SetRecorder, jobs.StoreConfig{
		QueueCap:         cfg.QueueCap,
		MaxConcurrent:    cfg.MaxConcurrent,
		MemBudget:        cfg.MemBudget,
		Footprint:        learner.footprint,
		CacheResident:    caches.Resident,
		Shed:             caches.Shed,
		EventSink:        sink,
		ObserveFootprint: learner.observe,
		Journal:          inst.Journal,
		MaxRetries:       maxRetries,
	})
	inst.Store = store
	srv.AttachJobs(store, func(req jobs.JobRequest) error {
		_, _, err := checkRequest(req)
		return err
	})
	srv.AttachCaches(caches, inst.Persister)

	// Replay what previous generations lost. Resubmission is
	// at-least-once, which the journal's identity dedupe and the result
	// cache together make idempotent: a duplicate replay is answered from
	// the cache, not re-mined.
	inst.Recovered = store.Resubmit(pending)
	return inst
}

// EstimateFootprint is the admission controller's cold-start per-job
// memory estimate, used until the FootprintLearner has a measured peak
// for the job's (dataset identity, kernel) — see FootprintLearner for the
// learned path. Partitioned jobs are bounded by their own budget (doubled:
// the candidate union and pass-2 counters live outside the chunk
// budget); in-memory jobs scale with the on-disk input size — the parsed
// DB, the kernel's projections and the collectors together run a few
// multiples of it. Deliberately conservative: over-estimating delays a
// job, under-estimating OOMs the process.
func EstimateFootprint(req jobs.JobRequest) int64 {
	if req.MemBudget > 0 {
		return 2 * req.MemBudget
	}
	est := int64(0)
	if fi, err := os.Stat(req.Path); err == nil {
		est = fi.Size() * 3
	}
	if est < footprintFloor {
		est = footprintFloor
	}
	return est
}

// mineJob is the store's MineFunc: mineWithCaches over the instance's
// serving caches (and, on durable instances, origin hashes on the
// listings it inserts).
func (inst *Instance) mineJob(ctx context.Context, req jobs.JobRequest, rec *fpm.MetricsRecorder) (jobs.MineResult, error) {
	return mineWithCaches(ctx, req, rec, inst.Caches, inst.Persister != nil)
}

// checkRequest holds the job request rules: min_support >= 1, a kernel
// the kernel table has and a pattern list that parses. It returns the
// resolved kernel and patterns ("" and "all" mean every applicable
// pattern, "none" the empty set). POST /jobs runs it before a job is
// journaled or queued; mineWithCaches runs it again for requests recovered
// from a journal written before that check. The kernel check is a table
// lookup: no kernel is built.
func checkRequest(req jobs.JobRequest) (fpm.Algorithm, fpm.PatternSet, error) {
	if req.MinSupport < 1 {
		return "", 0, fmt.Errorf("job: min_support must be >= 1 (got %d)", req.MinSupport)
	}
	a := fpm.Algorithm(req.Algo)
	if _, err := kernel.Lookup(a); err != nil {
		return "", 0, err
	}
	switch req.Patterns {
	case "", "all":
		return a, fpm.Applicable(a), nil
	case "none":
		return a, 0, nil
	}
	ps, err := fpm.ParsePatterns(req.Patterns, a)
	if err != nil {
		return "", 0, err
	}
	return a, ps, nil
}

// mineWithCaches executes one submitted job through the library's
// observed mining paths, so the job's counters stream into rec while it
// runs. ctx threads the job's cancellation and deadline into the run:
// both the in-memory and partitioned paths unwind cooperatively when it
// trips. A nil caches (or a nil cache in it) mines uncached; persist
// stamps inserted listings with their origin for the snapshot.
func mineWithCaches(ctx context.Context, req jobs.JobRequest, rec *fpm.MetricsRecorder, caches *servecache.Caches, persist bool) (jobs.MineResult, error) {
	// A request that fails the check fails the same way on every attempt,
	// so its errors are permanent: the store does not retry them. The
	// kernel is resolved before the result cache: a restored snapshot may
	// hold listings under a name the kernel table no longer has, and such
	// a request must fail cached or not.
	a, ps, err := checkRequest(req)
	if err != nil {
		return jobs.MineResult{}, jobs.Permanent(err)
	}

	// Result cache first: a listing cached at a support threshold <= the
	// query's answers it outright (exactly on a match, by filtering on
	// subsumption) and the mine is skipped entirely. The key carries the
	// resolved pattern bitset, so "lex,simd" and "simd,lex" share entries.
	var key servecache.ResultKey
	haveKey := false
	if caches != nil && caches.Results != nil {
		if id, _, err := durable.FileIdentity(req.Path, false); err == nil {
			key = servecache.ResultKey{ID: id, Algo: req.Algo, Patterns: strconv.FormatUint(uint64(ps), 10)}
			haveKey = true
			if sets, outcome, ok := caches.Results.Serve(key, req.MinSupport); ok {
				jobs.Emit(ctx, jobs.Event{Type: "result_cache", Outcome: outcome})
				return jobs.MineResult{Itemsets: len(sets), FromCache: true}, nil
			}
		}
	}

	opts := []fpm.ParallelOption{fpm.ParallelMetrics(rec), fpm.WithContext(ctx)}
	var sets []fpm.Itemset
	if req.MemBudget > 0 {
		// Out-of-core jobs stream from disk by design — caching the parsed
		// DB would defeat the memory bound — but their listings still land
		// in the result cache below.
		jobs.Emit(ctx, jobs.Event{Type: "mine_start"})
		sets, _, err = fpm.MinePartitioned(req.Path, a, ps, req.MinSupport, req.MemBudget, req.Workers, opts...)
		jobs.Emit(ctx, jobs.Event{Type: "mine_end", Itemsets: len(sets)})
	} else if caches != nil && caches.Datasets != nil {
		var entry *servecache.Dataset
		var outcome string
		entry, outcome, err = caches.Datasets.Acquire(req.Path)
		if err != nil {
			return jobs.MineResult{}, err
		}
		jobs.Emit(ctx, jobs.Event{Type: "dataset_cache", Outcome: outcome})
		// The cached DB is shared read-only across concurrent jobs; the
		// reference pins it against eviction until the mine returns.
		jobs.Emit(ctx, jobs.Event{Type: "mine_start"})
		sets, _, err = fpm.WithMetrics(entry.DB, a, ps, req.MinSupport, req.Workers, opts...)
		jobs.Emit(ctx, jobs.Event{Type: "mine_end", Itemsets: len(sets)})
		caches.Datasets.Release(entry)
	} else {
		var db *fpm.DB
		db, err = fpm.ReadFIMIFile(req.Path)
		if err != nil {
			return jobs.MineResult{}, err
		}
		jobs.Emit(ctx, jobs.Event{Type: "mine_start"})
		sets, _, err = fpm.WithMetrics(db, a, ps, req.MinSupport, req.Workers, opts...)
		jobs.Emit(ctx, jobs.Event{Type: "mine_end", Itemsets: len(sets)})
	}
	if err != nil {
		return jobs.MineResult{Itemsets: len(sets)}, err
	}
	if haveKey {
		stored := false
		if persist {
			// Durable insert: stamp the listing with its origin file and
			// that file's full-content FNV-64a, computed here in one read
			// with the identity — after the mine, never on the cache-hit
			// path. Restore validates the hash against the live file, which
			// closes the Identity collision window (same size, same 64 KiB
			// prefix, same mtime) on the persistence path. If the file
			// changed while we mined, the identity no longer matches the key
			// and the listing stays memory-only under its (now unreachable)
			// pre-mine key.
			if id, fh, err := durable.FileIdentity(req.Path, true); err == nil && id == key.ID {
				caches.Results.InsertDurable(key, req.MinSupport, sets, req.Path, fh)
				stored = true
			}
		}
		if !stored {
			caches.Results.Insert(key, req.MinSupport, sets)
		}
		jobs.Emit(ctx, jobs.Event{Type: "result_cache", Outcome: "store"})
	}
	return jobs.MineResult{Itemsets: len(sets)}, nil
}
