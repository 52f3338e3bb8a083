package servecache

// Tests for the result-cache snapshot codec and restore path: round trips,
// warmth-order preservation, the full-content-hash staleness gate (including
// the same-size/same-prefix/same-mtime collision window the in-memory
// Identity cannot see), mtime-drift re-keying, and hostile-input decoding.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/mine"
)

// sets1 / sets2 are small canonical-ready listings.
func sets1() []mine.Itemset {
	return []mine.Itemset{
		{Items: []dataset.Item{1}, Support: 9},
		{Items: []dataset.Item{1, 2}, Support: 5},
	}
}

func sets2() []mine.Itemset {
	return []mine.Itemset{
		{Items: []dataset.Item{3}, Support: 7},
		{Items: []dataset.Item{3, 4, 5}, Support: 4},
	}
}

// durableInsert inserts a listing with its real origin identity and
// full-content hash, returning the key it is cached under.
func durableInsert(t *testing.T, c *ResultCache, path, algo string, minsup int, sets []mine.Itemset) ResultKey {
	t.Helper()
	id, fh, err := durable.FileIdentity(path, true)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey{ID: id, Algo: algo, Patterns: "0"}
	c.InsertDurable(key, minsup, sets, path, fh)
	return key
}

func TestSnapshotRoundTripAndRestore(t *testing.T) {
	dir := t.TempDir()
	pa := writeFIMI(t, dir, "a.dat", 20)
	pb := writeFIMI(t, dir, "b.dat", 30)

	c := NewResultCache(0)
	ka := durableInsert(t, c, pa, "lcm", 4, sets1())
	kb := durableInsert(t, c, pb, "eclat", 3, sets2())
	// A memory-only listing must not be persisted.
	c.Insert(ResultKey{ID: durable.Identity{Size: 1, Hash: 2}, Algo: "lcm"}, 2, sets1())

	data, _, _ := c.EncodeSnapshot()
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("snapshot has %d entries, want 2 (memory-only entry must be skipped)", len(snap.Entries))
	}
	for _, e := range snap.Entries {
		if e.Path != pa && e.Path != pb {
			t.Fatalf("snapshot entry has unexpected path %q", e.Path)
		}
		if e.MinSupport != 4 && e.MinSupport != 3 {
			t.Fatalf("snapshot entry minsup = %d", e.MinSupport)
		}
	}

	// Restore into a fresh cache: both listings answer again.
	c2 := NewResultCache(0)
	st, err := c2.RestoreSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.DroppedStale != 0 || st.DroppedUnreadable != 0 {
		t.Fatalf("restore stats = %+v", st)
	}
	got, _, ok := c2.Serve(ka, 4)
	if !ok || len(got) != 2 {
		t.Fatalf("restored cache misses key A: %v %v", got, ok)
	}
	if _, _, ok := c2.Serve(kb, 3); !ok {
		t.Fatal("restored cache misses key B")
	}
	// Subsumption must survive the round trip too.
	if got, _, ok := c2.Serve(ka, 6); !ok || len(got) != 1 {
		t.Fatalf("restored listing lost subsumption: %v %v", got, ok)
	}
}

// The snapshot encodes coldest-first, so a restore reproduces the LRU
// warmth order: after restoring into a cache with room for exactly the
// two listings, the insert that overflows the cap evicts the entry that
// was coldest before the snapshot.
func TestSnapshotPreservesWarmthOrder(t *testing.T) {
	dir := t.TempDir()
	pa := writeFIMI(t, dir, "a.dat", 20)
	pb := writeFIMI(t, dir, "b.dat", 30)

	c := NewResultCache(0)
	ka := durableInsert(t, c, pa, "lcm", 4, sets1())
	kb := durableInsert(t, c, pb, "lcm", 4, sets2())
	// Touch A: B becomes the coldest.
	if _, _, ok := c.Serve(ka, 4); !ok {
		t.Fatal("setup serve failed")
	}

	data, _, _ := c.EncodeSnapshot()
	costB := setsBytes(Canonicalize(sets2()))
	c2 := NewResultCache(setsBytes(Canonicalize(sets1())) + costB)
	if st, err := c2.RestoreSnapshot(data); err != nil || st.Restored != 2 {
		t.Fatalf("restore = %+v, %v; want both listings", st, err)
	}
	// A listing as large as B fits once exactly one entry is evicted.
	c2.Insert(ResultKey{ID: durable.Identity{Size: 1, Hash: 1}, Algo: "lcm"}, 4, sets2())
	if s := c2.Stats(); s.Evictions != 1 {
		t.Fatalf("overflowing insert evicted %d entries, want 1", s.Evictions)
	}
	if _, _, ok := c2.Serve(kb, 4); ok {
		t.Fatal("B survived the eviction; restore lost the warmth order")
	}
	if _, _, ok := c2.Serve(ka, 4); !ok {
		t.Fatal("A (the warm entry) was evicted first")
	}
}

// The satellite headline: an edit inside the Identity collision window —
// same size, same 64 KiB prefix, same mtime — must not resurrect the old
// listing from a snapshot, because restore validates the full-content
// hash recorded at mine time.
func TestSnapshotRestoreDropsIdentityCollision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.dat")
	buf := make([]byte, (64<<10)+4096) // extends past identityPrefixBytes
	for i := range buf {
		buf[i] = byte('0' + i%10)
		if i%8 == 7 {
			buf[i] = '\n'
		}
	}
	pin := time.Unix(1700000000, 0)
	write := func() {
		t.Helper()
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, pin, pin); err != nil {
			t.Fatal(err)
		}
	}
	write()

	c := NewResultCache(0)
	key := durableInsert(t, c, path, "lcm", 4, sets1())
	data, _, _ := c.EncodeSnapshot()

	// Tail edit: size, prefix hash and mtime all unchanged — the in-memory
	// Identity cannot tell the files apart.
	buf[len(buf)-2] = '9'
	write()
	id, _, err := durable.FileIdentity(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if id != key.ID {
		t.Fatalf("test did not exercise the collision window: %s vs %s", id, key.ID)
	}

	c2 := NewResultCache(0)
	st, err := c2.RestoreSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 0 || st.DroppedStale != 1 {
		t.Fatalf("restore stats = %+v, want the colliding entry dropped stale", st)
	}
	if _, _, ok := c2.Serve(key, 4); ok {
		t.Fatal("stale listing resurrected through the identity collision window")
	}
}

// A file rewritten with identical bytes but a different mtime has a new
// in-memory identity; restore re-keys the entry to the live identity
// instead of dropping it (the content — which is what the listing
// describes — is unchanged).
func TestSnapshotRestoreRekeysMtimeDrift(t *testing.T) {
	dir := t.TempDir()
	path := writeFIMI(t, dir, "a.dat", 25)

	c := NewResultCache(0)
	oldKey := durableInsert(t, c, path, "lcm", 4, sets1())
	data, _, _ := c.EncodeSnapshot()

	// Same bytes, new mtime.
	newPin := time.Unix(1700000000, 0).Add(time.Hour)
	if err := os.Chtimes(path, newPin, newPin); err != nil {
		t.Fatal(err)
	}
	newID, _, err := durable.FileIdentity(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if newID == oldKey.ID {
		t.Fatal("mtime change did not change the identity; test is vacuous")
	}

	c2 := NewResultCache(0)
	st, err := c2.RestoreSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedStale != 0 {
		t.Fatalf("restore stats = %+v, want the drifted entry re-keyed", st)
	}
	newKey := oldKey
	newKey.ID = newID
	if _, _, ok := c2.Serve(newKey, 4); !ok {
		t.Fatal("restored entry not reachable under the live identity")
	}
}

func TestSnapshotRestoreDropsUnreadable(t *testing.T) {
	dir := t.TempDir()
	path := writeFIMI(t, dir, "a.dat", 25)

	c := NewResultCache(0)
	key := durableInsert(t, c, path, "lcm", 4, sets1())
	data, _, _ := c.EncodeSnapshot()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	c2 := NewResultCache(0)
	st, err := c2.RestoreSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 0 || st.DroppedUnreadable != 1 {
		t.Fatalf("restore stats = %+v, want the entry dropped unreadable", st)
	}
	if _, _, ok := c2.Serve(key, 4); ok {
		t.Fatal("listing for a deleted file restored")
	}
}

// DecodeSnapshot must reject every malformation with ErrSnapshotCorrupt —
// the structured cases here; FuzzCacheSnapshotDecode covers arbitrary bytes.
func TestDecodeSnapshotHostile(t *testing.T) {
	dir := t.TempDir()
	path := writeFIMI(t, dir, "a.dat", 20)
	c := NewResultCache(0)
	durableInsert(t, c, path, "lcm", 4, sets1())
	valid, _, _ := c.EncodeSnapshot()

	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":       nil,
		"magic only":  []byte(snapMagic),
		"header only": valid[:len(snapMagic)+1],
		"bad magic":   mut(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version": mut(func(b []byte) []byte { b[len(snapMagic)] = 99; return b }),
		"crc flip":    mut(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
		"truncated":   valid[:len(valid)-3],
		"trailing":    append(append([]byte(nil), valid...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(data); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
	// Payload-level malformations need the CRC recomputed, which Encode
	// does; build snapshots that violate structural invariants directly.
	bad := []struct {
		name string
		snap Snapshot
	}{
		{"no origin path", Snapshot{Entries: []SnapshotEntry{{Algo: "lcm", MinSupport: 2}}}},
		{"zero minsup", Snapshot{Entries: []SnapshotEntry{{Path: "p", MinSupport: 0}}}},
		{"support below threshold", Snapshot{Entries: []SnapshotEntry{{
			Path: "p", MinSupport: 5,
			Sets: []mine.Itemset{{Items: []dataset.Item{1}, Support: 3}}}}}},
		{"items not ascending", Snapshot{Entries: []SnapshotEntry{{
			Path: "p", MinSupport: 2,
			Sets: []mine.Itemset{{Items: []dataset.Item{2, 1}, Support: 3}}}}}},
		{"sets out of canonical order", Snapshot{Entries: []SnapshotEntry{{
			Path: "p", MinSupport: 2,
			Sets: []mine.Itemset{
				{Items: []dataset.Item{1, 2}, Support: 3},
				{Items: []dataset.Item{1}, Support: 4}}}}}},
	}
	for _, tc := range bad {
		if _, err := DecodeSnapshot(tc.snap.Encode()); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
	}

	if _, err := DecodeSnapshot(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// TestSnapshotGoldenBytes pins the FPRS wire format: a fixed snapshot must
// encode byte-identically to the hex captured from the format's first
// encoder and decode back to the same bytes, so a restarted server keeps
// reading snapshots an earlier build wrote.
func TestSnapshotGoldenBytes(t *testing.T) {
	const want = "4650525301cc7a5cc6020a2f746d702f612e646174036c636d013302effdb6f50d02090101020201020a2f746d702f622e6461740565636c617400010001010307090b"
	snap := &Snapshot{Entries: []SnapshotEntry{
		{Path: "/tmp/a.dat", Algo: "lcm", Patterns: "3", MinSupport: 2, FullHash: 0xdeadbeef,
			Sets: []mine.Itemset{
				{Items: []dataset.Item{1}, Support: 9},
				{Items: []dataset.Item{1, 2}, Support: 2},
			}},
		{Path: "/tmp/b.dat", Algo: "eclat", MinSupport: 1,
			Sets: []mine.Itemset{{Items: []dataset.Item{7, 9, 11}, Support: 1}}},
	}}
	if got := hex.EncodeToString(snap.Encode()); got != want {
		t.Fatalf("encoding drifted:\n got %s\nwant %s", got, want)
	}
	data, _ := hex.DecodeString(want)
	dec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if !bytes.Equal(dec.Encode(), data) {
		t.Fatal("golden does not re-encode to itself")
	}
}
