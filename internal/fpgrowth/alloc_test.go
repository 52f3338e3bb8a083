package fpgrowth

import (
	"runtime"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

// withTail returns a copy of db whose alphabet carries extra more items,
// each occurring once, so every one of them is infrequent at any support
// above 1.
func withTail(db *dataset.DB, extra int) *dataset.DB {
	out := &dataset.DB{Tx: make([]dataset.Transaction, len(db.Tx)), NumItems: db.NumItems + extra}
	for i, t := range db.Tx {
		out.Tx[i] = append(dataset.Transaction(nil), t...)
	}
	for j := 0; j < extra; j++ {
		i := j % len(out.Tx)
		out.Tx[i] = append(out.Tx[i], dataset.Item(db.NumItems+j))
	}
	return out
}

// bytesPerMine reports the bytes one mine of db allocates, after a warm-up
// mine, together with the number of itemsets it found.
func bytesPerMine(t *testing.T, m *Miner, db *dataset.DB, minsup int) (uint64, int) {
	t.Helper()
	var cc mine.CountCollector
	if err := m.Mine(db, minsup, &cc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cc = mine.CountCollector{}
	if err := m.Mine(db, minsup, &cc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, cc.N
}

// TestTunedBytesIgnoreInfrequentTail checks that the tuned tree's header
// is bounded by the frequent ranks, not by the alphabet: 100k infrequent
// items added to a corpus may cost the O(alphabet) relabelling once per
// mine, but not once per conditional tree.
func TestTunedBytesIgnoreInfrequentTail(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := gen.Quest(gen.QuestConfig{Transactions: 4000, AvgLen: 20, AvgPatternLen: 6, Items: 400, Patterns: 80, Seed: 11})
	const minsup = 80
	m := New(Options{Patterns: mine.Applicable(mine.FPGrowth)})
	plain, n := bytesPerMine(t, m, db, minsup)
	tailed, tn := bytesPerMine(t, m, withTail(db, 100_000), minsup)
	if n == 0 || tn != n {
		t.Fatalf("mined %d itemsets with the tail, %d without", tn, n)
	}
	if float64(tailed) > 1.5*float64(plain) {
		t.Fatalf("a 100k-item infrequent tail raised bytes per mine from %d to %d (%.1fx, limit 1.5x)",
			plain, tailed, float64(tailed)/float64(plain))
	}
}

// coreTailDB returns n three-item transactions over a vocab-item alphabet:
// two distinct items of the core 0..7 and one item no other transaction
// has, spread over the rest of the alphabet. At support n/50 exactly the
// eight core items and their 28 pairs are frequent.
func coreTailDB(n, vocab int) *dataset.DB {
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		a := i % 8
		b := (a + 1 + i/8%7) % 8
		tx[i] = dataset.Transaction{dataset.Item(min(a, b)), dataset.Item(max(a, b)), dataset.Item(8 + i*(vocab-8)/n)}
	}
	return &dataset.DB{Tx: tx, NumItems: vocab}
}

// TestTunedAllocsIgnoreInfrequentRows checks that P1 lays out rows in one
// arena and that the infrequent items cost nothing beyond the scan: ten
// times the transactions, with the same frequent items and the same
// tree, must not cost more allocations.
func TestTunedAllocsIgnoreInfrequentRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := New(Options{Patterns: mine.Applicable(mine.FPGrowth)})
	allocs := func(n int) float64 {
		db := coreTailDB(n, 10_000)
		return testing.AllocsPerRun(1, func() {
			var cc mine.CountCollector
			if err := m.Mine(db, n/50, &cc); err != nil {
				t.Fatal(err)
			}
			if cc.N != 36 {
				t.Fatalf("mined %d itemsets, want the 8 core items and their 28 pairs", cc.N)
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("allocs per mine: %.0f at 500 transactions, %.0f at 5000", small, large)
	if large > small {
		t.Fatalf("%.0f allocations per mine at 5000 transactions, %.0f at 500: they grow with the rows", large, small)
	}
}

// TestTunedBytesIgnoreInfrequentItems checks that a 500-transaction mine
// over a 100,000-item alphabet pays for one frequency count and rank table
// over the alphabet and nothing else alphabet-sized.
func TestTunedBytesIgnoreInfrequentItems(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// An 8-byte frequency and a 4-byte rank per alphabet item, plus
	// 256 KiB for everything the frequent items and the rows size.
	const vocab = 100_000
	const limit = 12*vocab + 256<<10
	m := New(Options{Patterns: mine.Applicable(mine.FPGrowth)})
	bytes, n := bytesPerMine(t, m, coreTailDB(500, vocab), 10)
	t.Logf("bytes per mine: %d", bytes)
	if n != 36 {
		t.Fatalf("mined %d itemsets, want the 8 core items and their 28 pairs", n)
	}
	if bytes > limit {
		t.Fatalf("%d bytes per mine over a %d-item alphabet; limit %d", bytes, vocab, limit)
	}
}
