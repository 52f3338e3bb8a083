package lcm

import (
	"runtime"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

// TestTunedProjectionAllocs checks that a projection costs a fixed number
// of allocations rather than one growing slice per projected row, on the
// quest4k corpus of the repository benchmark.
func TestTunedProjectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := gen.Quest(gen.QuestConfig{Transactions: 4000, AvgLen: 20, AvgPatternLen: 6, Items: 400, Patterns: 80, Seed: 11})
	const minsup = 80
	// Tuned allocations per mine when every projected row grew its own
	// slice and every OccArray column grew by append (go1.24, linux/amd64).
	const perRowAllocs = 1_106_715
	m := New(Options{Patterns: mine.Applicable(mine.LCM)})
	allocs := testing.AllocsPerRun(1, func() {
		if err := m.Mine(db, minsup, &mine.CountCollector{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > perRowAllocs/2 {
		t.Fatalf("%.0f allocations per mine; want at most half of %d", allocs, perRowAllocs)
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

// mineCost reports the allocations and bytes one tuned mine of db costs,
// after a warm-up mine.
func mineCost(t *testing.T, db *dataset.DB, minsup int) (allocs float64, bytes uint64) {
	t.Helper()
	m := New(Options{Patterns: mine.Applicable(mine.LCM)})
	run := func() {
		var cc mine.CountCollector
		if err := m.Mine(db, minsup, &cc); err != nil {
			t.Fatal(err)
		}
		if cc.N != 36 {
			t.Fatalf("mined %d itemsets, want the 8 core items and their 28 pairs", cc.N)
		}
	}
	allocs = testing.AllocsPerRun(1, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

// TestTunedAllocsIgnoreInfrequentRows checks that P1 lays out rows in one
// arena and that rows whose items are all infrequent cost nothing beyond
// the scan: ten times the transactions, with the same frequent items and
// rows, must not cost more allocations.
func TestTunedAllocsIgnoreInfrequentRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	small, _ := mineCost(t, coreTailDB(500, 10_000), 10)
	large, _ := mineCost(t, coreTailDB(5000, 10_000), 100)
	t.Logf("allocs per mine: %.0f at 500 transactions, %.0f at 5000", small, large)
	if large > small {
		t.Fatalf("%.0f allocations per mine at 5000 transactions, %.0f at 500: they grow with the rows", large, small)
	}
}

// TestTunedBytesIgnoreInfrequentItems checks that the root OccArray,
// counters and tiles cover the frequent items only: a 500-transaction
// mine over a 100,000-item alphabet pays for one frequency count and rank
// table over the alphabet, not for per-item mining structures.
func TestTunedBytesIgnoreInfrequentItems(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// An 8-byte frequency and a 4-byte rank per alphabet item, plus
	// 256 KiB for everything the frequent items and the rows size.
	const vocab = 100_000
	const limit = 12*vocab + 256<<10
	_, bytes := mineCost(t, coreTailDB(500, vocab), 10)
	t.Logf("bytes per mine: %d", bytes)
	if bytes > limit {
		t.Fatalf("%d bytes per mine over a %d-item alphabet; limit %d", bytes, vocab, limit)
	}
}
