package servecache

import (
	"container/list"
	"slices"
	"sync"

	"fpm/internal/durable"
	"fpm/internal/mine"
)

// ResultKey identifies one mining answer space: the input dataset (by
// identity hash), the kernel, and the tuning-pattern set. The support
// threshold is deliberately NOT part of the key — it is the subsumption
// axis: one cached listing mined at threshold s answers every query at
// threshold >= s by filtering, because mining is complete (the listing
// holds every itemset with support >= s, so the subset with support >= s'
// is exactly the s' answer). Patterns and kernel are in the key out of
// caution only; the differential oracle asserts they never change the
// answer, but a cache must not be the thing that hides it if one ever
// did.
type ResultKey struct {
	ID       durable.Identity
	Algo     string
	Patterns string
}

// ResultCache caches canonical frequent-itemset listings keyed by
// ResultKey, one entry per key holding the listing mined at the lowest
// support threshold seen (lower thresholds subsume higher ones). Entries
// are evicted LRU-first under a byte cap.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	entries  map[ResultKey]*resultEntry
	lru      *list.List // all entries; back = coldest
	resident int64
	stats    ResultStats
	// mutGen counts every entry mutation (insert, replace, removal) and
	// removeGen only removals (eviction, replacement). The persister uses
	// mutGen to decide whether the on-disk snapshot is stale and removeGen
	// to guarantee write-after-removal ordering: a snapshot encoded before
	// a removal is never renamed into place after it (an evicted or
	// replaced entry must not be resurrected from disk by a concurrent
	// writer).
	mutGen    uint64
	removeGen uint64
}

// ResultStats is a point-in-time census of the result cache.
type ResultStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// HitsExact answered a query at exactly the cached threshold;
	// HitsSubsumed answered a higher-threshold query by filtering.
	HitsExact    uint64 `json:"hits_exact"`
	HitsSubsumed uint64 `json:"hits_subsumed"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
}

type resultEntry struct {
	key    ResultKey
	minsup int
	sets   []mine.Itemset // canonical order, supports descending-compatible
	bytes  int64
	elem   *list.Element
	// path and fullHash are the entry's durable origin: the input file it
	// was mined from and that file's full-content FNV-64a at mine time.
	// Only entries with a non-empty path are persisted (InsertDurable sets
	// them; plain Insert leaves them zero), and Restore re-validates the
	// full hash against the live file before re-admitting an entry — the
	// full-content check the in-memory Identity deliberately skips.
	path     string
	fullHash uint64
}

// NewResultCache builds a cache bounded to maxBytes of resident listings
// (<= 0 means unbounded).
func NewResultCache(maxBytes int64) *ResultCache {
	return &ResultCache{
		maxBytes: maxBytes,
		entries:  make(map[ResultKey]*resultEntry),
		lru:      list.New(),
	}
}

// Canonicalize deep-copies sets and sorts the copy with
// mine.SortCanonical, the order the CLI prints. Each itemset's items are
// already ascending, as every kernel emits them. The copy means cache
// entries never alias a collector's arena.
func Canonicalize(sets []mine.Itemset) []mine.Itemset {
	out := make([]mine.Itemset, len(sets))
	for i, s := range sets {
		out[i] = mine.Itemset{Items: slices.Clone(s.Items), Support: s.Support}
	}
	mine.SortCanonical(out)
	return out
}

// setsBytes estimates a listing's resident footprint.
func setsBytes(sets []mine.Itemset) int64 {
	var n int64
	for _, s := range sets {
		n += int64(len(s.Items))*4 + 32
	}
	return n + 24
}

// Filter returns the subsequence of a canonical listing with support >=
// minSupport — the subsumption step. The returned slice is fresh but
// shares the item slices (read-only by contract).
func Filter(sets []mine.Itemset, minSupport int) []mine.Itemset {
	out := make([]mine.Itemset, 0, len(sets))
	for _, s := range sets {
		if s.Support >= minSupport {
			out = append(out, s)
		}
	}
	return out
}

// Serve answers a query for (key, minSupport) from the cache: an entry
// mined at a threshold <= minSupport yields the exact answer by
// filtering. The returned listing is in canonical order and must be
// treated as read-only. The outcome, for the flight recorder, is "hit"
// (the cached listing's threshold matched exactly) or "subsume" (a
// lower-threshold listing answered by filtering); it is empty on a miss.
func (c *ResultCache) Serve(key ResultKey, minSupport int) ([]mine.Itemset, string, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || e.minsup > minSupport {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, "", false
	}
	c.lru.MoveToFront(e.elem)
	if e.minsup == minSupport {
		c.stats.HitsExact++
	} else {
		c.stats.HitsSubsumed++
	}
	sets := e.sets
	c.mu.Unlock()
	if e.minsup == minSupport {
		return sets, "hit", true
	}
	return Filter(sets, minSupport), "subsume", true
}

// Insert offers a freshly mined listing to the cache. A listing mined at
// a lower threshold replaces the cached one (it subsumes it); a listing
// at the same or a higher threshold is dropped in favour of the cached
// entry, which already answers it. Listings larger than the cap are not
// cached. sets may be in any order, each itemset's items ascending as
// mined; the cache canonicalizes its own copy.
func (c *ResultCache) Insert(key ResultKey, minSupport int, sets []mine.Itemset) {
	c.insert(key, minSupport, sets, "", 0)
}

// InsertDurable is Insert plus the entry's durable origin: the input file
// path and that file's full-content FNV-64a, computed by the caller at
// mine time (off the hot path — cache hits never pay for it). Entries
// inserted this way are included in Snapshot and survive restarts;
// entries inserted with plain Insert stay memory-only.
func (c *ResultCache) InsertDurable(key ResultKey, minSupport int, sets []mine.Itemset, path string, fullHash uint64) {
	c.insert(key, minSupport, sets, path, fullHash)
}

func (c *ResultCache) insert(key ResultKey, minSupport int, sets []mine.Itemset, path string, fullHash uint64) {
	canon := Canonicalize(sets)
	cost := setsBytes(canon)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.minsup <= minSupport {
			return // cached entry already subsumes this listing
		}
		c.removeLocked(e)
	}
	if c.maxBytes > 0 {
		if cost > c.maxBytes {
			return
		}
		for c.resident+cost > c.maxBytes {
			back := c.lru.Back()
			if back == nil {
				break
			}
			c.removeLocked(back.Value.(*resultEntry))
			c.stats.Evictions++
		}
		if c.resident+cost > c.maxBytes {
			return
		}
	}
	e := &resultEntry{key: key, minsup: minSupport, sets: canon, bytes: cost,
		path: path, fullHash: fullHash}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.resident += cost
	c.mutGen++
}

// removeLocked unlinks an entry; callers hold c.mu.
func (c *ResultCache) removeLocked(e *resultEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.resident -= e.bytes
	c.mutGen++
	c.removeGen++
}

// Stats returns a consistent snapshot of the cache counters.
func (c *ResultCache) Stats() ResultStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.resident
	return s
}
