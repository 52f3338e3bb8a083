package servecache

// Persister tests: debounced periodic writes, the final write on Close,
// injected write failures leaving the previous snapshot intact,
// serialised concurrent writes, and the write-after-removal ordering
// guarantee (deterministically via the raced rename, and under -race with
// concurrent mutators).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/failpoint"
	"fpm/internal/mine"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPersisterWritesAndDebounces(t *testing.T) {
	dir := t.TempDir()
	path := writeFIMI(t, dir, "a.dat", 20)
	snapPath := filepath.Join(dir, "results.snap")

	c := NewResultCache(0)
	p := NewPersister(c, snapPath, 5*time.Millisecond)
	key := durableInsert(t, c, path, "lcm", 4, sets1())
	waitFor(t, "first snapshot write", func() bool { return p.Stats().Writes >= 1 })

	// No mutation: further ticks must not rewrite the file.
	w1 := p.Stats().Writes
	time.Sleep(40 * time.Millisecond)
	if w2 := p.Stats().Writes; w2 != w1 {
		t.Fatalf("persister rewrote an unchanged cache: %d -> %d writes", w1, w2)
	}

	// A mutation makes the snapshot stale again.
	pb := writeFIMI(t, dir, "b.dat", 30)
	durableInsert(t, c, pb, "eclat", 3, sets2())
	waitFor(t, "post-mutation write", func() bool { return p.Stats().Writes > w1 })

	p.Close()
	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("final snapshot has %d entries, want 2", len(snap.Entries))
	}
	c2 := NewResultCache(0)
	if _, err := c2.RestoreSnapshot(snap.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Serve(key, 4); !ok {
		t.Fatal("snapshot round trip through the persister lost the entry")
	}
}

func TestPersisterCloseFlushesFinalWrite(t *testing.T) {
	dir := t.TempDir()
	path := writeFIMI(t, dir, "a.dat", 20)
	snapPath := filepath.Join(dir, "results.snap")

	c := NewResultCache(0)
	p := NewPersister(c, snapPath, time.Hour) // no tick will ever fire
	durableInsert(t, c, path, "lcm", 4, sets1())
	p.Close()
	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 1 {
		t.Fatalf("Close did not flush: %d entries", len(snap.Entries))
	}
}

// An injected write failure (the full-disk model) must leave the previous
// snapshot byte-for-byte intact and be counted; recovery on the next
// attempt converges to the current state.
func TestPersisterWriteFailureLeavesPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	pa := writeFIMI(t, dir, "a.dat", 20)
	snapPath := filepath.Join(dir, "results.snap")

	c := NewResultCache(0)
	p := NewPersister(c, snapPath, time.Hour)
	defer p.Close()
	durableInsert(t, c, pa, "lcm", 4, sets1())
	if err := p.WriteNow(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	reg := failpoint.New()
	reg.Fail(failpoint.ServecachePersistWrite, errors.New("disk full"))
	failpoint.Enable(reg)
	defer failpoint.Disable()

	pb := writeFIMI(t, dir, "b.dat", 30)
	durableInsert(t, c, pb, "eclat", 3, sets2())
	if err := p.WriteNow(); err == nil {
		t.Fatal("WriteNow succeeded through an armed write failpoint")
	}
	if got := p.Stats().Errors; got != 1 {
		t.Fatalf("Errors = %d, want 1", got)
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed write corrupted the previous snapshot")
	}

	failpoint.Disable()
	if err := p.WriteNow(); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("recovered snapshot has %d entries, want 2", len(snap.Entries))
	}
}

// The deterministic half of the write-after-removal ordering guarantee:
// a snapshot encoded before a removal must not be renamed into place
// after it — writeAtomic detects the removal-generation change and
// discards the stale temp file. Both ways an entry leaves the cache are
// covered: a cap-driven eviction and a lower-threshold replacement.
func TestSnapshotRenameRefusesToRaceRemoval(t *testing.T) {
	dir := t.TempDir()
	pa := writeFIMI(t, dir, "a.dat", 20)
	pb := writeFIMI(t, dir, "b.dat", 30)
	for _, tc := range []struct {
		name   string
		remove func(c *ResultCache) // lands between encode and rename
		want   string               // the one entry the snapshot may hold
	}{
		{"eviction", func(c *ResultCache) { durableInsert(t, c, pb, "lcm", 4, sets1()) }, pb},
		{"replacement", func(c *ResultCache) { durableInsert(t, c, pa, "lcm", 3, sets1()) }, pa},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapPath := filepath.Join(t.TempDir(), "results.snap")
			c := NewResultCache(setsBytes(Canonicalize(sets1()))) // room for one listing
			p := NewPersister(c, snapPath, time.Hour)
			defer p.Close()
			durableInsert(t, c, pa, "lcm", 4, sets1())

			data, _, removeGen := c.EncodeSnapshot()
			tc.remove(c)
			if err := p.writeAtomic(data, removeGen); err != errSnapshotRaced {
				t.Fatalf("writeAtomic = %v, want errSnapshotRaced", err)
			}
			if _, err := os.Stat(snapPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("a raced snapshot landed on disk")
			}
			if _, err := os.Stat(snapPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("raced attempt leaked its temp file")
			}

			// WriteNow re-encodes and converges on the post-removal state.
			if err := p.WriteNow(); err != nil {
				t.Fatal(err)
			}
			snap, err := ReadSnapshotFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Entries) != 1 || snap.Entries[0].Path != tc.want {
				t.Fatalf("post-removal snapshot = %+v, want only the live %s listing", snap.Entries, tc.want)
			}
			if tc.name == "replacement" && snap.Entries[0].MinSupport != 3 {
				t.Fatalf("snapshot resurrects the replaced minsup-%d listing", snap.Entries[0].MinSupport)
			}
		})
	}
}

// The concurrent half, for the race detector: writers snapshotting while
// a mutator inserts into a cache capped at two listings, so inserts evict
// and lower thresholds replace. After quiescence the final snapshot must
// hold exactly the entries still resident — nothing evicted or replaced
// may survive on disk.
func TestSnapshotShedOrderingUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "results.snap")
	var paths []string
	for i := 0; i < 6; i++ {
		paths = append(paths, writeFIMI(t, dir, string(rune('a'+i))+".dat", 20+i))
	}

	c := NewResultCache(2 * setsBytes(Canonicalize(sets1())))
	p := NewPersister(c, snapPath, time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // mutator: churn inserts, evictions and replacements
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			durableInsert(t, c, paths[i%len(paths)], "lcm", 2+(i/len(paths))%4, sets1()) // sets1 holds supports 9 and 5
		}
	}()
	go func() { // writer: force extra snapshots between ticks
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = p.WriteNow()
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	p.Close() // final write reflects the quiesced cache

	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("the mutator never evicted: %+v", s)
	}
	// Every persisted entry must still be resident and serveable at the
	// threshold it was persisted with: an evicted or replaced entry
	// surviving on disk would resurrect on the next restart.
	for _, e := range snap.Entries {
		id, _, err := durable.FileIdentity(e.Path, false)
		if err != nil {
			t.Fatal(err)
		}
		key := ResultKey{ID: id, Algo: e.Algo, Patterns: e.Patterns}
		if _, _, ok := c.Serve(key, e.MinSupport); !ok {
			t.Fatalf("snapshot holds %q which the live cache no longer serves", e.Path)
		}
		if _, _, ok := c.Serve(key, e.MinSupport-1); ok {
			t.Fatalf("snapshot holds %q at minsup %d, replaced by a lower threshold in the live cache", e.Path, e.MinSupport)
		}
	}
	if got, want := len(snap.Entries), s.Entries; got != want {
		t.Fatalf("final snapshot has %d entries, live cache has %d", got, want)
	}
}

// Writes through WriteNow and the background loop take turns: with
// several callers at once, no write fails, none publishes a torn file,
// and the generation each records is the one on disk, so Close's final
// write is not skipped and the snapshot ends up holding every entry.
// Unserialised writers share the one temp path: their renames fail and
// interleaved bytes get published.
func TestPersisterSerializesWritesUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "results.snap")
	const writers, rounds = 4, 10
	// Large listings make each write long enough for writers to overlap.
	big := make([]mine.Itemset, 2000)
	for i := range big {
		big[i] = mine.Itemset{Items: []dataset.Item{dataset.Item(i), dataset.Item(i + 1)}, Support: 2 + i%7}
	}
	c := NewResultCache(0)
	p := NewPersister(c, snapPath, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				path := writeFIMI(t, dir, fmt.Sprintf("w%d-r%d.dat", w, r), 20+w*rounds+r)
				durableInsert(t, c, path, "lcm", 2, big)
				if err := p.WriteNow(); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p.Close()

	if s := p.Stats(); s.Errors != 0 {
		t.Fatalf("%d snapshot writes failed: %+v", s.Errors, s)
	}
	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Entries); got != writers*rounds {
		t.Fatalf("final snapshot has %d entries, want all %d", got, writers*rounds)
	}
}
