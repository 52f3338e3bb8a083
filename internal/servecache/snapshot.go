package servecache

// Result-cache persistence: the cache's durable entries serialise into a
// small FPRS sidecar file (an internal/durable frame, see DESIGN.md §16)
// so a restarted server starts with a warm result cache — a hot key stays
// hot across a kill -9. The decoder treats the payload as hostile: it
// validates every count against the remaining payload before allocating,
// never panics, and wraps every malformation in ErrSnapshotCorrupt so
// callers degrade to a cold cache.
//
// A snapshot entry carries the listing's origin — the input file path and
// that file's full-content FNV-64a at mine time — instead of the
// in-memory Identity. RestoreSnapshot recomputes the identity from the
// live file (so an mtime-only drift, e.g. the file rewritten with
// identical bytes, re-keys the entry rather than dropping it) and
// validates the stored full hash against the file's current content:
// a same-size/same-prefix/same-mtime edit — the documented collision
// window of the prefix-hash Identity — can therefore never resurrect a
// stale listing from disk.

import (
	"errors"
	"os"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/mine"
)

const (
	snapMagic   = "FPRS"
	snapVersion = 1
)

// ErrSnapshotCorrupt reports a sidecar that is not a well-formed result
// cache snapshot: wrong magic, unknown version, CRC mismatch, or a
// payload failing structural validation. Corrupt input never panics
// (FuzzCacheSnapshotDecode asserts this); callers treat it as "no
// snapshot" and start cold.
var ErrSnapshotCorrupt = errors.New("servecache: snapshot corrupt")

var snapFormat = durable.Format{Magic: snapMagic, Version: snapVersion, Corrupt: ErrSnapshotCorrupt}

// SnapshotEntry is one persisted listing: the request coordinates that
// key it, the origin file with its full-content hash, and the canonical
// listing itself.
type SnapshotEntry struct {
	Path       string
	Algo       string
	Patterns   string
	MinSupport int
	FullHash   uint64
	Sets       []mine.Itemset
}

// Snapshot is the decoded form of a result-cache sidecar file.
type Snapshot struct {
	Entries []SnapshotEntry
}

// Encode serialises the snapshot: magic, version byte, CRC32(payload),
// payload (entry count, then per entry the varint-packed fields and the
// listing).
func (s *Snapshot) Encode() []byte {
	e := snapFormat.NewEncoder()
	e.Uvarint(uint64(len(s.Entries)))
	for _, ent := range s.Entries {
		e.String(ent.Path)
		e.String(ent.Algo)
		e.String(ent.Patterns)
		e.Uvarint(uint64(ent.MinSupport))
		e.Uvarint(ent.FullHash)
		e.Uvarint(uint64(len(ent.Sets)))
		for _, set := range ent.Sets {
			e.Uvarint(uint64(set.Support))
			e.Uvarint(uint64(len(set.Items)))
			for _, it := range set.Items {
				e.Uvarint(uint64(it))
			}
		}
	}
	return e.Seal()
}

// DecodeSnapshot parses and validates a serialised snapshot. Any
// malformation yields an error wrapping ErrSnapshotCorrupt; it never
// panics and never allocates more than the input size warrants (every
// count claimed by the payload is bounded by the remaining bytes before
// allocation).
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	corrupt := func(what string) (*Snapshot, error) { return nil, snapFormat.Reject(what) }
	r, err := snapFormat.Open(data)
	if err != nil {
		return nil, err
	}

	snap := &Snapshot{}
	nEntries := r.Uvarint()
	if r.Err() != nil {
		return corrupt("truncated entry count")
	}
	// Each entry costs at least 6 payload bytes (three string lengths,
	// minsup, hash, set count), so an entry count beyond the remaining
	// bytes is a lie — reject before allocating.
	if nEntries > uint64(r.Len()) {
		return corrupt("implausible entry count")
	}
	snap.Entries = make([]SnapshotEntry, 0, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		var e SnapshotEntry
		e.Path = r.String()
		e.Algo = r.String()
		e.Patterns = r.String()
		minsup := r.Uvarint()
		e.FullHash = r.Uvarint()
		nSets := r.Uvarint()
		if r.Err() != nil {
			return corrupt("truncated entry header")
		}
		if e.Path == "" {
			return corrupt("entry without origin path")
		}
		if minsup < 1 || minsup > uint64(int(^uint(0)>>1)) {
			return corrupt("min support out of range")
		}
		e.MinSupport = int(minsup)
		// Each itemset costs at least 2 payload bytes (support + length).
		if nSets > uint64(r.Len()) {
			return corrupt("implausible itemset count")
		}
		e.Sets = make([]mine.Itemset, 0, nSets)
		prevItems := []dataset.Item(nil)
		for k := uint64(0); k < nSets; k++ {
			sup := r.Uvarint()
			nItems := r.Uvarint()
			if r.Err() != nil {
				return corrupt("truncated itemset header")
			}
			if sup < uint64(e.MinSupport) || sup > uint64(int(^uint(0)>>1)) {
				// A listing mined at minsup cannot contain a set below it;
				// accepting one would let a corrupt snapshot answer queries
				// with itemsets the subsumption filter should exclude.
				return corrupt("support below entry threshold")
			}
			if nItems > uint64(r.Len()) {
				return corrupt("implausible item count")
			}
			items := make([]dataset.Item, nItems)
			prev := int64(-1)
			for j := uint64(0); j < nItems; j++ {
				it := r.Uvarint()
				if r.Err() != nil {
					return corrupt("truncated items")
				}
				if it > uint64(^uint32(0)>>1) || int64(it) <= prev {
					// Canonical listings have items strictly ascending;
					// anything else is not a snapshot we wrote.
					return corrupt("items not strictly increasing")
				}
				prev = int64(it)
				items[j] = dataset.Item(it)
			}
			set := mine.Itemset{Items: items, Support: int(sup)}
			// Canonical order between itemsets too: size then element-wise.
			if k > 0 && !mine.LessItems(prevItems, items) {
				return corrupt("itemsets not in canonical order")
			}
			prevItems = items
			e.Sets = append(e.Sets, set)
		}
		snap.Entries = append(snap.Entries, e)
	}
	if r.Len() != 0 {
		return corrupt("trailing bytes")
	}
	return snap, nil
}

// EncodeSnapshot serialises the cache's durable entries (those inserted
// with InsertDurable) under the cache lock, returning the encoded bytes
// together with the mutation and removal generations at encode time. The
// persister uses mutGen to tell whether the on-disk file is stale and
// removeGen to order writes after removals (see Persister).
func (c *ResultCache) EncodeSnapshot() (data []byte, mutGen, removeGen uint64) {
	c.mu.Lock()
	snap := &Snapshot{}
	// Coldest first, so RestoreSnapshot's insert order (each insert lands
	// at the LRU front) reproduces the warmth order the cache had.
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		re := e.Value.(*resultEntry)
		if re.path == "" {
			continue // memory-only entry
		}
		snap.Entries = append(snap.Entries, SnapshotEntry{
			Path:       re.path,
			Algo:       re.key.Algo,
			Patterns:   re.key.Patterns,
			MinSupport: re.minsup,
			FullHash:   re.fullHash,
			Sets:       re.sets,
		})
	}
	mutGen, removeGen = c.mutGen, c.removeGen
	c.mu.Unlock()
	return snap.Encode(), mutGen, removeGen
}

// RestoreStats reports what a RestoreSnapshot admitted and dropped.
type RestoreStats struct {
	// Restored entries were re-admitted to the cache.
	Restored int
	// DroppedStale entries named a file whose full-content hash no longer
	// matches the one recorded at mine time — the listing might not
	// describe the file's current content, so it must not be served.
	DroppedStale int
	// DroppedUnreadable entries named a file that could not be read
	// (deleted, moved, permission change).
	DroppedUnreadable int
}

// RestoreSnapshot pre-warms the cache from an encoded snapshot. Each
// entry is validated against the live input file: the identity is
// recomputed from the file as it is now (tolerating pure mtime drift)
// and the entry is dropped unless the file's full-content FNV-64a still
// equals the hash recorded at mine time. A decode failure wraps
// ErrSnapshotCorrupt and restores nothing — the caller starts cold.
func (c *ResultCache) RestoreSnapshot(data []byte) (RestoreStats, error) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return RestoreStats{}, err
	}
	var st RestoreStats
	for _, e := range snap.Entries {
		id, fh, err := durable.FileIdentity(e.Path, true)
		if err != nil {
			st.DroppedUnreadable++
			continue
		}
		if fh != e.FullHash {
			st.DroppedStale++
			continue
		}
		key := ResultKey{ID: id, Algo: e.Algo, Patterns: e.Patterns}
		c.InsertDurable(key, e.MinSupport, e.Sets, e.Path, e.FullHash)
		st.Restored++
	}
	return st, nil
}

// ReadSnapshotFile loads and decodes the sidecar at path. A missing file
// is reported as os.ErrNotExist (a normal first boot, not corruption).
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}
