package eclat_test

import (
	"runtime"
	"testing"

	"fpm"
	"fpm/internal/dataset"
	"fpm/internal/eclat"
	"fpm/internal/mine"
)

// TestTunedAllocsBoundedByEmitted checks that neither a pruned candidate
// nor an emitted itemset costs an allocation: candidates' vectors come
// from the run's free list and itemsets are restored into one buffer, so
// the tuned mine's allocations are bounded by the alphabet, though its
// support countings outnumber its itemsets several times over on this
// corpus: 27,958 for 5,903 itemsets. The same generator with 60 patterns
// gives 28,720 itemsets for 58,365 countings, too few to tell the two
// apart, since the classes expand least frequent item first.
func TestTunedAllocsBoundedByEmitted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := fpm.GenerateQuest(fpm.QuestConfig{Transactions: 1500, AvgLen: 16, AvgPatternLen: 5, Items: 300, Patterns: 200, Seed: 7})
	const minsup = 30
	var snap fpm.Snapshot
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if _, snap, err = fpm.WithMetrics(db, fpm.Eclat, fpm.Applicable(fpm.Eclat), minsup, 1); err != nil {
			t.Fatal(err)
		}
	})
	if snap.Supports < 4*snap.Emitted {
		t.Fatalf("%d support countings for %d itemsets: the corpus no longer separates the two", snap.Supports, snap.Emitted)
	}
	// Per alphabet item: a vector (header and words) at the root and about
	// as many on the free list. Per mine: the relabelled rows' arena, the
	// depth slices, the collector's chunks and the recorder.
	limit := 4*uint64(db.NumItems) + 1000
	t.Logf("%.0f allocations for %d itemsets and %d support countings", allocs, snap.Emitted, snap.Supports)
	if uint64(allocs) > limit {
		t.Fatalf("%.0f allocations for %d itemsets and %d support countings; limit %d",
			allocs, snap.Emitted, snap.Supports, limit)
	}
}

// questAllocs reports the allocations and itemsets of one tuned mine of
// db at minsup.
func questAllocs(t *testing.T, db *dataset.DB, minsup int) (allocs float64, itemsets int) {
	t.Helper()
	m := eclat.New(eclat.Options{Patterns: mine.Applicable(mine.Eclat)})
	allocs = testing.AllocsPerRun(1, func() {
		var cc mine.CountCollector
		if err := m.Mine(db, minsup, &cc); err != nil {
			t.Fatal(err)
		}
		itemsets = cc.N
	})
	return allocs, itemsets
}

// TestTunedAllocsIndependentOfItemsets checks that a mine's allocations
// do not grow with the itemsets it emits: on the quest4k corpus of the
// repository benchmark, support 40 emits 27 times the itemsets of support
// 160, and must cost at most four times the allocations. One vector per
// surviving candidate made the ratio 27.2.
func TestTunedAllocsIndependentOfItemsets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := fpm.GenerateQuest(fpm.QuestConfig{Transactions: 4000, AvgLen: 20, AvgPatternLen: 6, Items: 400, Patterns: 80, Seed: 11})
	few, fewSets := questAllocs(t, db, 160)
	many, manySets := questAllocs(t, db, 40)
	t.Logf("%.0f allocations for %d itemsets, %.0f for %d", few, fewSets, many, manySets)
	if manySets < 20*fewSets {
		t.Fatalf("%d itemsets at support 40, %d at 160: the corpus no longer separates the two", manySets, fewSets)
	}
	if many > 4*few {
		t.Fatalf("%.0f allocations for %d itemsets, %.0f for %d: ratio %.2f, want at most 4",
			many, manySets, few, fewSets, many/few)
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
	m := eclat.New(eclat.Options{Patterns: mine.Applicable(mine.Eclat)})
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
// arena and builds one vector per frequent item: ten times the
// transactions, with the same frequent items, must not cost more
// allocations.
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
	_, bytes := mineCost(t, coreTailDB(500, vocab), 10)
	t.Logf("bytes per mine: %d", bytes)
	if bytes > limit {
		t.Fatalf("%d bytes per mine over a %d-item alphabet; limit %d", bytes, vocab, limit)
	}
}
