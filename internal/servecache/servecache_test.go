package servecache

// Unit tests for the serving caches: identity hashing, the ref-counted
// dataset cache (hit/miss/coalesce/evict/detach/parse-error paths), and
// the subsuming result cache (exact and filtered hits, replacement,
// eviction). The cross-kernel subsumption property test and the
// concurrency storms live in their own files.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/fimi"
	"fpm/internal/mine"
)

// writeFIMI writes n transactions of the form "1 2 ... k" to a temp file
// and returns its path. Varying n varies both size and content. The mtime
// is pinned to a fixed instant so that two files with identical bytes get
// identical identities (Identity folds the mtime in; without pinning, the
// aliasing assertions below would race the filesystem clock).
func writeFIMI(t *testing.T, dir, name string, n int) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "1 2 %d\n", 3+i%5)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	pin := time.Unix(1700000000, 0)
	if err := os.Chtimes(path, pin, pin); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileIdentity(t *testing.T) {
	dir := t.TempDir()
	a := writeFIMI(t, dir, "a.dat", 10)
	b := writeFIMI(t, dir, "b.dat", 10) // same bytes, different path
	c := writeFIMI(t, dir, "c.dat", 11)

	ida, _, err := durable.FileIdentity(a, false)
	if err != nil {
		t.Fatal(err)
	}
	idb, _, err := durable.FileIdentity(b, false)
	if err != nil {
		t.Fatal(err)
	}
	idc, _, err := durable.FileIdentity(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Fatalf("identical content, different identity: %s vs %s", ida, idb)
	}
	if ida == idc {
		t.Fatalf("different content, same identity: %s", ida)
	}
	if ida.Size == 0 || ida.Hash == 0 {
		t.Fatalf("degenerate identity %s", ida)
	}
	if _, _, err := durable.FileIdentity(filepath.Join(dir, "missing.dat"), false); err == nil {
		t.Fatal("FileIdentity of a missing file must error")
	}
}

// An in-place edit past the hashed prefix with the size unchanged must
// still change the identity (via the mtime), or the caches would serve
// stale parses and listings for the new content.
func TestFileIdentityInPlaceEditPastPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.dat")
	buf := make([]byte, (64<<10)+4096) // extends well past identityPrefixBytes
	for i := range buf {
		buf[i] = byte('0' + i%10)
		if i%8 == 7 {
			buf[i] = '\n'
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1700000000, 0)
	if err := os.Chtimes(path, t0, t0); err != nil {
		t.Fatal(err)
	}
	before, _, err := durable.FileIdentity(path, false)
	if err != nil {
		t.Fatal(err)
	}

	// Flip bytes in the tail only: same size, same prefix hash.
	buf[len(buf)-2] = '9'
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t1 := t0.Add(time.Second)
	if err := os.Chtimes(path, t1, t1); err != nil {
		t.Fatal(err)
	}
	after, _, err := durable.FileIdentity(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size != after.Size || before.Hash != after.Hash {
		t.Fatalf("test did not exercise the prefix blind spot: %s vs %s", before, after)
	}
	if before == after {
		t.Fatalf("in-place edit past the prefix kept identity %s", before)
	}
}

func TestDatasetCacheHitMissRelease(t *testing.T) {
	dir := t.TempDir()
	path := writeFIMI(t, dir, "a.dat", 50)
	alias := writeFIMI(t, dir, "alias.dat", 50) // same bytes under another name
	c := NewDatasetCache(0)

	e1, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if e1.DB == nil || e1.DB.Len() != 50 || e1.Bytes <= 0 {
		t.Fatalf("acquired entry = %+v", e1)
	}
	e2, _, err := c.Acquire(alias) // same identity: must share the parse
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatal("same-content file did not share the cached entry")
	}
	c.Release(e1)
	c.Release(e2)
	if got := c.Stats().Bytes; got != e1.Bytes {
		t.Fatalf("resident after release = %d, want %d (entry stays cached)", got, e1.Bytes)
	}
	e3, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(e3)
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits / 1 entry", s)
	}
}

// Concurrent cold acquires of one identity must coalesce onto a single
// parse: exactly one miss, everyone gets the same handle.
func TestDatasetCacheCoalescesParses(t *testing.T) {
	path := writeFIMI(t, t.TempDir(), "a.dat", 200)
	c := NewDatasetCache(0)
	const n = 16
	handles := make([]*Dataset, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			e, _, err := c.Acquire(path)
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = e
		}(i)
	}
	wg.Wait()
	for _, e := range handles[1:] {
		if e != handles[0] {
			t.Fatal("concurrent acquires returned distinct entries")
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("stats = %+v, want exactly 1 parse for %d acquires", s, n)
	}
	for _, e := range handles {
		c.Release(e)
	}
}

func TestDatasetCacheEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	small1 := writeFIMI(t, dir, "s1.dat", 20)
	small2 := writeFIMI(t, dir, "s2.dat", 21)
	db1, _ := fimi.ReadFile(small1)
	unit := fimi.DBBytes(db1)
	c := NewDatasetCache(2*unit + unit/2) // room for ~two entries

	e1, _, err := c.Acquire(small1)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(e1)
	e2, _, err := c.Acquire(small2)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(e2)
	// Touch s1 so s2 becomes the LRU cold entry, then force an eviction.
	if e, _, err := c.Acquire(small1); err != nil {
		t.Fatal(err)
	} else {
		c.Release(e)
	}
	// A third, similar-sized dataset: fitting it needs one eviction, and
	// that eviction must pick the LRU cold entry (s2), not s1.
	third := writeFIMI(t, dir, "third.dat", 22)
	e3, _, err := c.Acquire(third)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(e3)
	if !e2.Evicted() {
		t.Fatal("LRU entry (s2) was not the one evicted")
	}
	if e1.Evicted() {
		t.Fatal("recently-used entry (s1) was evicted ahead of the LRU one")
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", s)
	}
}

// A dataset that cannot fit (cap smaller than the parse) is still served,
// detached from the cache; releasing the detached handle is a no-op.
func TestDatasetCacheDetachedWhenOverCap(t *testing.T) {
	path := writeFIMI(t, t.TempDir(), "a.dat", 100)
	c := NewDatasetCache(1) // nothing fits
	e, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.DB == nil || e.DB.Len() != 100 {
		t.Fatalf("detached acquire lost the parse: %+v", e)
	}
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("resident = %d, want 0 (entry must stay out of the cache)", got)
	}
	c.Release(e)
	s := c.Stats()
	if s.Skipped != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 skip / 0 entries", s)
	}
}

// A failed parse must not poison the cache: the error is returned, and a
// later acquire of the same identity retries (and can succeed after the
// file is fixed in place — same size, same prefix-hashed head).
func TestDatasetCacheParseErrorRetries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.dat")
	if err := os.WriteFile(path, []byte("1 2 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewDatasetCache(0)
	if _, _, err := c.Acquire(path); err == nil {
		t.Fatal("acquire of malformed FIMI must error")
	}
	if err := os.WriteFile(path, []byte("1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, _, err := c.Acquire(path)
	if err != nil {
		t.Fatalf("retry after fixing the file: %v", err)
	}
	c.Release(e)
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (no cached failure)", s)
	}
}

func sets(pairs ...any) []mine.Itemset {
	out := make([]mine.Itemset, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, mine.Itemset{Items: pairs[i].([]dataset.Item), Support: pairs[i+1].(int)})
	}
	return out
}

func listing(ss []mine.Itemset) string {
	var b strings.Builder
	for _, s := range ss {
		fmt.Fprintf(&b, "%v:%d\n", s.Items, s.Support)
	}
	return b.String()
}

func TestResultCacheExactAndSubsumedHits(t *testing.T) {
	c := NewResultCache(0)
	key := ResultKey{ID: durable.Identity{Size: 9, Hash: 7}, Algo: "lcm", Patterns: "3"}
	// Deliberately unordered: the cache sorts the listing. Each itemset's
	// items are ascending, as every kernel emits them.
	c.Insert(key, 2, sets(
		[]dataset.Item{1, 3}, 4,
		[]dataset.Item{1}, 6,
		[]dataset.Item{2}, 3,
		[]dataset.Item{1, 2}, 2,
	))

	got, _, ok := c.Serve(key, 2)
	if !ok {
		t.Fatal("exact-threshold serve missed")
	}
	want := listing(sets([]dataset.Item{1}, 6, []dataset.Item{2}, 3, []dataset.Item{1, 2}, 2, []dataset.Item{1, 3}, 4))
	if listing(got) != want {
		t.Fatalf("exact serve listing:\n%scached want:\n%s", listing(got), want)
	}

	got, _, ok = c.Serve(key, 4) // subsumed: filter support >= 4
	if !ok {
		t.Fatal("subsumed serve missed")
	}
	if want := listing(sets([]dataset.Item{1}, 6, []dataset.Item{1, 3}, 4)); listing(got) != want {
		t.Fatalf("subsumed serve listing:\n%swant:\n%s", listing(got), want)
	}

	if _, _, ok := c.Serve(key, 1); ok {
		t.Fatal("a minsup below the cached threshold must miss (cache cannot invent itemsets)")
	}
	if _, _, ok := c.Serve(ResultKey{ID: key.ID, Algo: "eclat", Patterns: key.Patterns}, 2); ok {
		t.Fatal("a different kernel must miss")
	}
	s := c.Stats()
	if s.HitsExact != 1 || s.HitsSubsumed != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestResultCacheLowerThresholdReplaces(t *testing.T) {
	c := NewResultCache(0)
	key := ResultKey{ID: durable.Identity{Size: 1, Hash: 1}, Algo: "lcm"}
	c.Insert(key, 5, sets([]dataset.Item{1}, 9))
	c.Insert(key, 7, sets([]dataset.Item{1}, 9)) // higher threshold: dropped
	if _, _, ok := c.Serve(key, 5); !ok {
		t.Fatal("higher-threshold insert replaced a subsuming entry")
	}
	c.Insert(key, 3, sets([]dataset.Item{1}, 9, []dataset.Item{2}, 4)) // lower: replaces
	got, _, ok := c.Serve(key, 3)
	if !ok || len(got) != 2 {
		t.Fatalf("lower-threshold insert did not replace: ok=%v sets=%d", ok, len(got))
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("stats = %+v, want a single entry per key", s)
	}
}

func TestResultCacheEvictionAndShed(t *testing.T) {
	one := sets([]dataset.Item{1, 2, 3}, 5)
	cost := setsBytes(Canonicalize(one))
	c := NewResultCache(2 * cost)
	k := func(i uint64) ResultKey { return ResultKey{ID: durable.Identity{Size: 1, Hash: i}, Algo: "lcm"} }
	c.Insert(k(1), 2, one)
	c.Insert(k(2), 2, one)
	c.Serve(k(1), 2)       // touch k1: k2 becomes LRU
	c.Insert(k(3), 2, one) // must evict k2
	if _, _, ok := c.Serve(k(2), 2); ok {
		t.Fatal("LRU entry survived an over-cap insert")
	}
	if _, _, ok := c.Serve(k(1), 2); !ok {
		t.Fatal("recently-served entry was evicted instead of the LRU one")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// An insert too big to fit beside any one entry sheds every cold
	// entry, not just the coldest.
	two := sets([]dataset.Item{1, 2, 3}, 5, []dataset.Item{4, 5, 6}, 5)
	twoCost := setsBytes(Canonicalize(two))
	if twoCost <= cost || twoCost > 2*cost {
		t.Fatalf("fixture: a two-itemset listing costs %d, want (%d, %d]", twoCost, cost, 2*cost)
	}
	c.Insert(k(4), 2, two)
	if _, _, ok := c.Serve(k(4), 2); !ok {
		t.Fatal("listing within the cap was not cached")
	}
	if s := c.Stats(); s.Evictions != 3 || s.Entries != 1 || s.Bytes != twoCost {
		t.Fatalf("stats after an insert that needs both entries' room = %+v", s)
	}
	// An oversized listing must be refused, not thrash the whole cache.
	big := make([]mine.Itemset, 200)
	for i := range big {
		big[i] = mine.Itemset{Items: []dataset.Item{dataset.Item(i)}, Support: 2}
	}
	c.Insert(k(9), 2, big)
	if _, _, ok := c.Serve(k(9), 2); ok {
		t.Fatal("listing larger than the cap was cached")
	}
}

// Cache entries must not alias the caller's slices: mutating the inserted
// listing afterwards must not corrupt what the cache serves.
func TestResultCacheCopiesOnInsert(t *testing.T) {
	c := NewResultCache(0)
	key := ResultKey{ID: durable.Identity{Size: 2, Hash: 2}, Algo: "lcm"}
	in := sets([]dataset.Item{1, 5}, 3)
	c.Insert(key, 3, in)
	in[0].Items[0] = 99
	in[0].Support = -1
	got, _, ok := c.Serve(key, 3)
	if !ok || len(got) != 1 || got[0].Items[0] != 1 || got[0].Items[1] != 5 || got[0].Support != 3 {
		t.Fatalf("cached listing aliased caller memory: %+v", got)
	}
}
