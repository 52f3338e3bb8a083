package serve

import (
	"container/list"
	"os"
	"sync"

	"fpm/internal/durable"
	"fpm/internal/jobs"
)

// Learner tuning. The EWMA tracks a job's measured peak footprint per
// (dataset identity, kernel): alpha keeps roughly the last three runs in
// play — fast enough to follow a dataset that was edited in place (new
// identity anyway) or a kernel whose footprint shifts with minsup, slow
// enough that one noisy GC-timing outlier cannot halve the estimate. The
// safety margin re-inflates the admitted charge over the smoothed mean so
// a typical-sized repeat still fits when it runs slightly heavy; 1.2 is
// well inside the 25%-of-measured-peak convergence bound the repeated-
// identity test enforces. The entry cap bounds a long-lived server
// against identity churn (every edit of a watched file mints a new
// identity); 4096 entries are a few hundred KiB.
const (
	learnerAlpha      = 0.3
	learnerMargin     = 1.2
	learnerMaxEntries = 4096
)

// learnKey identifies one learned footprint stream: the dataset (by
// content identity, the same notion the serving caches key on) and the
// kernel. MinSupport is deliberately not in the key — footprint is
// dominated by the parsed DB and the kernel's projections, which scale
// with the dataset, and folding thresholds in would shatter the stream
// into cold singletons.
type learnKey struct {
	ID   durable.Identity
	Algo string
}

type learnEntry struct {
	key  learnKey
	ewma float64
	obs  int
	elem *list.Element
}

// identStamp memoizes a path's identity so the admission loop — which may
// re-evaluate a blocked head job on every scheduler wake — does not
// re-hash the file's 64 KiB prefix each time. A stat still runs per
// lookup: size or mtime moving invalidates the memo, which is exactly the
// staleness rule Identity itself encodes.
type identStamp struct {
	size    int64
	modTime int64
	id      durable.Identity
}

// FootprintLearner closes the admission loop: it folds each mined job's
// measured peak footprint (the job store's heap sampler) into a
// per-(identity, kernel) EWMA and serves that measurement — with a safety
// margin — as the admission estimate for repeat jobs, displacing the
// static 3×-file-size heuristic the moment one real observation exists.
// Safe for concurrent use.
type FootprintLearner struct {
	mu      sync.Mutex
	entries map[learnKey]*learnEntry
	lru     *list.List // all entries; back = coldest
	idents  map[string]identStamp
}

// NewFootprintLearner returns an empty learner.
func NewFootprintLearner() *FootprintLearner {
	return &FootprintLearner{
		entries: make(map[learnKey]*learnEntry),
		lru:     list.New(),
		idents:  make(map[string]identStamp),
	}
}

// identity resolves path to its content identity through the memo.
func (l *FootprintLearner) identity(path string) (durable.Identity, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return durable.Identity{}, false
	}
	l.mu.Lock()
	st, ok := l.idents[path]
	l.mu.Unlock()
	if ok && st.size == fi.Size() && st.modTime == fi.ModTime().UnixNano() {
		return st.id, true
	}
	id, _, err := durable.FileIdentity(path, false)
	if err != nil {
		return durable.Identity{}, false
	}
	l.mu.Lock()
	if len(l.idents) >= learnerMaxEntries {
		// Crude but bounded: the memo only saves a 64 KiB read, so a rare
		// full reset beats tracking a second LRU.
		l.idents = make(map[string]identStamp)
	}
	l.idents[path] = identStamp{size: id.Size, modTime: id.ModTime, id: id}
	l.mu.Unlock()
	return id, true
}

// Estimate returns the learned admission estimate for (path, algo):
// margin × the EWMA of measured peaks, floored like the heuristic. ok is
// false when nothing has been observed for the identity yet (or the file
// is unreadable) — the caller then falls back to the heuristic.
func (l *FootprintLearner) Estimate(path, algo string) (int64, bool) {
	id, ok := l.identity(path)
	if !ok {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[learnKey{ID: id, Algo: algo}]
	if !ok || e.obs == 0 {
		return 0, false
	}
	l.lru.MoveToFront(e.elem)
	est := int64(e.ewma * learnerMargin)
	if est < footprintFloor {
		est = footprintFloor
	}
	return est, true
}

// Observations returns how many peaks have been folded in for
// (path, algo); zero when the stream is cold.
func (l *FootprintLearner) Observations(path, algo string) int {
	id, ok := l.identity(path)
	if !ok {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.entries[learnKey{ID: id, Algo: algo}]; ok {
		return e.obs
	}
	return 0
}

// Observe folds one measured peak footprint into the (path, algo) stream,
// creating it (seeded at the observation) on first sight.
func (l *FootprintLearner) Observe(path, algo string, peakBytes int64) {
	if peakBytes <= 0 {
		return
	}
	id, ok := l.identity(path)
	if !ok {
		return
	}
	key := learnKey{ID: id, Algo: algo}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		for len(l.entries) >= learnerMaxEntries {
			back := l.lru.Back()
			old := back.Value.(*learnEntry)
			l.lru.Remove(back)
			delete(l.entries, old.key)
		}
		e = &learnEntry{key: key, ewma: float64(peakBytes), obs: 1}
		e.elem = l.lru.PushFront(e)
		l.entries[key] = e
		return
	}
	l.lru.MoveToFront(e.elem)
	e.ewma += learnerAlpha * (float64(peakBytes) - e.ewma)
	e.obs++
}

// footprint is the serve instance's jobs.FootprintFunc: learned
// estimates when the identity has been mined before, the static
// EstimateFootprint heuristic otherwise. Partitioned jobs never learn —
// their footprint is bounded by their own budget, not by history.
func (l *FootprintLearner) footprint(req jobs.JobRequest) (int64, bool) {
	if req.MemBudget <= 0 {
		if est, ok := l.Estimate(req.Path, req.Algo); ok {
			return est, true
		}
	}
	return EstimateFootprint(req), false
}

// observe is the matching jobs.StoreConfig.ObserveFootprint hook.
func (l *FootprintLearner) observe(req jobs.JobRequest, peakBytes int64) {
	if req.MemBudget > 0 {
		return
	}
	l.Observe(req.Path, req.Algo, peakBytes)
}
