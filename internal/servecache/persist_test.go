package servecache

// Persister tests: debounced periodic writes, the final write on Close,
// injected write failures leaving the previous snapshot intact, and the
// write-after-shed ordering guarantee (deterministically via the raced
// rename, and under -race with concurrent mutators).

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fpm/internal/durable"
	"fpm/internal/failpoint"
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
	if _, ok := c2.Serve(key, 4); !ok {
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

// The deterministic half of the write-after-shed ordering guarantee: a
// snapshot encoded before a removal must not be renamed into place after
// it — writeAtomic detects the removal-generation change and discards the
// stale temp file.
func TestSnapshotRenameRefusesToRaceRemoval(t *testing.T) {
	dir := t.TempDir()
	pa := writeFIMI(t, dir, "a.dat", 20)
	snapPath := filepath.Join(dir, "results.snap")

	c := NewResultCache(0)
	p := NewPersister(c, snapPath, time.Hour)
	defer p.Close()
	key := durableInsert(t, c, pa, "lcm", 4, sets1())

	data, _, removeGen := c.EncodeSnapshot()
	c.Shed(1 << 40) // the removal lands between encode and rename
	if err := p.writeAtomic(data, removeGen); err != errSnapshotRaced {
		t.Fatalf("writeAtomic = %v, want errSnapshotRaced", err)
	}
	if _, err := os.Stat(snapPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("a raced snapshot landed on disk")
	}
	if _, err := os.Stat(snapPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("raced attempt leaked its temp file")
	}

	// WriteNow re-encodes and converges on the post-shed state.
	if err := p.WriteNow(); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 0 {
		t.Fatalf("post-shed snapshot resurrects %d entries (key %v was shed)", len(snap.Entries), key)
	}
}

// The concurrent half, for the race detector: writers snapshotting while
// mutators insert and shed. After quiescence the final snapshot must hold
// exactly the entries still resident — nothing shed may survive on disk.
func TestSnapshotShedOrderingUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "results.snap")
	var paths []string
	for i := 0; i < 6; i++ {
		paths = append(paths, writeFIMI(t, dir, string(rune('a'+i))+".dat", 20+i))
	}

	c := NewResultCache(0)
	p := NewPersister(c, snapPath, time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // mutator: churn inserts and sheds
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			durableInsert(t, c, paths[i%len(paths)], "lcm", 4, sets1())
			if i%3 == 0 {
				c.Shed(1)
			}
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
	// Every persisted entry must still be resident and serveable: a shed
	// entry surviving on disk would resurrect on the next restart.
	for _, e := range snap.Entries {
		id, _, err := durable.FileIdentity(e.Path, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Serve(ResultKey{ID: id, Algo: e.Algo, Patterns: e.Patterns}, e.MinSupport); !ok {
			t.Fatalf("snapshot holds %q which the live cache no longer serves", e.Path)
		}
	}
	if got, want := len(snap.Entries), c.Stats().Entries; got != want {
		t.Fatalf("final snapshot has %d entries, live cache has %d", got, want)
	}
}
