package servecache

import (
	"fmt"
	"sync"
	"time"

	"fpm/internal/durable"
	"fpm/internal/failpoint"
)

// DefaultPersistInterval paces the background snapshot writer when the
// caller does not choose one. Coarse on purpose: the snapshot is a warm
// restart optimisation, not a transaction log (the job journal carries
// the correctness story), so a couple of seconds of staleness only costs
// a re-mine after a crash.
const DefaultPersistInterval = 2 * time.Second

// PersistStats is the persister's census, rendered on /metrics as the
// fpm_cache_persist_* family.
type PersistStats struct {
	// Writes counts snapshots renamed into place; Errors counts failed
	// write attempts (the previous snapshot stays intact either way).
	Writes uint64 `json:"writes"`
	Errors uint64 `json:"errors"`
	// Restored / DroppedStale / DroppedUnreadable describe the startup
	// restore (see RestoreStats); Corrupt is 1 when the snapshot file
	// existed but failed validation and the cache started cold.
	Restored          int `json:"restored"`
	DroppedStale      int `json:"dropped_stale"`
	DroppedUnreadable int `json:"dropped_unreadable"`
	Corrupt           int `json:"corrupt"`
	// LastBytes is the size of the last snapshot written.
	LastBytes int64 `json:"last_bytes"`
}

// Persister periodically snapshots a ResultCache's durable entries into
// an atomic sidecar file (durable.WriteFile).
// Writes are serialised: one runs at a time, from encode to recording
// its generation, so two writers never share the temp file and the
// recorded generation is always the one on disk. Writes are debounced: a
// tick writes only when the cache mutated since the last successful
// write. Writes are ordered after removals: the rename is taken under the
// cache lock only if no entry was removed since the snapshot was encoded,
// so an evicted or replaced entry can never be resurrected by a stale
// snapshot. Close performs a final write, making graceful shutdown
// durable without waiting a tick.
type Persister struct {
	cache    *ResultCache
	path     string
	interval time.Duration

	// wmu serialises writes and guards lastGen and wrote.
	wmu     sync.Mutex
	lastGen uint64 // cache mutGen captured by the last successful write
	wrote   bool   // at least one successful write (lastGen is meaningful)

	mu    sync.Mutex // guards stats
	stats PersistStats

	stop chan struct{}
	done chan struct{}
}

// NewPersister starts the background writer for cache, persisting to
// path every interval (0 means DefaultPersistInterval). Callers must
// Close it to stop the goroutine and flush the final snapshot.
func NewPersister(cache *ResultCache, path string, interval time.Duration) *Persister {
	if interval <= 0 {
		interval = DefaultPersistInterval
	}
	p := &Persister{
		cache:    cache,
		path:     path,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p
}

// NoteRestore folds the startup restore outcome into the stats, so the
// whole durability story is visible in one metrics family.
func (p *Persister) NoteRestore(st RestoreStats, corrupt bool) {
	p.mu.Lock()
	p.stats.Restored = st.Restored
	p.stats.DroppedStale = st.DroppedStale
	p.stats.DroppedUnreadable = st.DroppedUnreadable
	if corrupt {
		p.stats.Corrupt = 1
	}
	p.mu.Unlock()
}

// Stats returns a consistent snapshot of the persister counters.
func (p *Persister) Stats() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the background writer, performing one final write if the
// cache mutated since the last one. Idempotent-unsafe: call once.
func (p *Persister) Close() {
	close(p.stop)
	<-p.done
}

func (p *Persister) loop() {
	defer close(p.done)
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			p.writeIfStale()
			return
		case <-tick.C:
			p.writeIfStale()
		}
	}
}

// writeIfStale writes a snapshot unless the on-disk one already reflects
// the cache's current mutation generation.
func (p *Persister) writeIfStale() {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.cache.mu.Lock()
	gen := p.cache.mutGen
	p.cache.mu.Unlock()
	if p.wrote && gen == p.lastGen {
		return
	}
	p.writeLocked()
}

// snapAttempts bounds the encode/write/rename retries one WriteNow makes
// when removals keep racing the encode. Giving up leaves the snapshot
// stale for this round; the next tick retries, so persistence converges
// once a write window is free of removals.
const snapAttempts = 5

// WriteNow synchronously snapshots the cache to the sidecar path: encode
// under the cache lock (capturing the removal generation), write + fsync
// a temp file, then rename into place — but only if no removal happened
// since the encode. The rename is taken under the cache lock, so an
// eviction or replacement serialises either entirely before the encode
// (the removed entry is not in the snapshot) or entirely after the rename
// check (the stale temp file is discarded and the attempt retried). An
// injected servecache.persist.write failure, a full disk, or a lost race
// all leave the previous snapshot intact. Concurrent calls, and the
// background writer, take turns.
func (p *Persister) WriteNow() error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.writeLocked()
}

// writeLocked is WriteNow's body; callers hold p.wmu.
func (p *Persister) writeLocked() error {
	var lastErr error
	for attempt := 0; attempt < snapAttempts; attempt++ {
		data, mutGen, removeGen := p.cache.EncodeSnapshot()
		if err := p.writeAtomic(data, removeGen); err != nil {
			if err == errSnapshotRaced {
				lastErr = err
				continue
			}
			p.mu.Lock()
			p.stats.Errors++
			p.mu.Unlock()
			return err
		}
		p.mu.Lock()
		p.stats.Writes++
		p.stats.LastBytes = int64(len(data))
		p.mu.Unlock()
		p.lastGen = mutGen
		p.wrote = true
		return nil
	}
	return lastErr
}

// errSnapshotRaced signals a removal between encode and rename; the
// caller re-encodes and retries.
var errSnapshotRaced = fmt.Errorf("servecache: snapshot raced a removal")

func (p *Persister) writeAtomic(data []byte, removeGen uint64) error {
	if err := failpoint.Hit(failpoint.ServecachePersistWrite); err != nil {
		return err
	}
	// The commit point. Under the cache lock: a removal (eviction or
	// replacement) after the encode makes this snapshot stale in the dangerous
	// direction — it still contains the removed entry — so it must not
	// land. Removals bump removeGen under the same lock, which makes the
	// check and the rename one atomic step against them.
	err := durable.WriteFile(p.path, data, func(rename func() error) error {
		p.cache.mu.Lock()
		defer p.cache.mu.Unlock()
		if p.cache.removeGen != removeGen {
			return errSnapshotRaced
		}
		return rename()
	})
	if err != nil && err != errSnapshotRaced {
		return fmt.Errorf("servecache: snapshot: %w", err)
	}
	return err
}
