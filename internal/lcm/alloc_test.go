package lcm

import (
	"runtime"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/metrics"
	"fpm/internal/mine"
)

// quest4k is the quest4k corpus of the repository benchmark.
func quest4k() *dataset.DB {
	return gen.Quest(gen.QuestConfig{Transactions: 4000, AvgLen: 20, AvgPatternLen: 6, Items: 400, Patterns: 80, Seed: 11})
}

// questAllocs reports the allocations and itemsets of one tuned mine of
// db at minsup.
func questAllocs(t *testing.T, db *dataset.DB, minsup int) (allocs float64, itemsets int) {
	t.Helper()
	m := New(Options{Patterns: mine.Applicable(mine.LCM)})
	allocs = testing.AllocsPerRun(1, func() {
		var cc mine.CountCollector
		if err := m.Mine(db, minsup, &cc); err != nil {
			t.Fatal(err)
		}
		itemsets = cc.N
	})
	return allocs, itemsets
}

// TestTunedProjectionAllocs checks that projections reuse their depth's
// storage: on quest4k at support 80, a mine costs a few thousand
// allocations, where one arena per projection cost 284,612 and one
// growing slice per projected row 1,106,715 (go1.24, linux/amd64).
func TestTunedProjectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const limit = 6_000
	allocs, _ := questAllocs(t, quest4k(), 80)
	t.Logf("%.0f allocations per mine", allocs)
	if allocs > limit {
		t.Fatalf("%.0f allocations per mine; limit %d", allocs, limit)
	}
}

// TestTunedAllocsIndependentOfItemsets checks that a mine's allocations
// do not grow with the itemsets it emits: on quest4k, support 40 emits
// 27 times the itemsets of support 160, and must cost at most twice the
// allocations. One allocation per projection made the ratio 27.6.
func TestTunedAllocsIndependentOfItemsets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := quest4k()
	few, fewSets := questAllocs(t, db, 160)
	many, manySets := questAllocs(t, db, 40)
	t.Logf("%.0f allocations for %d itemsets, %.0f for %d", few, fewSets, many, manySets)
	if manySets < 20*fewSets {
		t.Fatalf("%d itemsets at support 40, %d at 160: the corpus no longer separates the two", manySets, fewSets)
	}
	if many > 2*few {
		t.Fatalf("%.0f allocations for %d itemsets, %.0f for %d: ratio %.2f, want at most 2",
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

// TestNodeWorkIndependentOfAlphabet checks that a node's work follows the
// items of its conditional database, not its alphabet bound: mining a
// Quest database untuned, and again with every item id multiplied by
// 1,000, yields the same itemsets up to that relabelling, and the spread
// run's support countings exceed the compact run's only by the root's
// extra alphabet. Charging every node its alphabet bound made the spread
// run count about nodes × 1,000 times more.
func TestNodeWorkIndependentOfAlphabet(t *testing.T) {
	const spread = 1000
	compact := gen.Quest(gen.QuestConfig{Transactions: 1000, AvgLen: 10, AvgPatternLen: 4, Items: 50, Patterns: 40, Seed: 5})
	wide := &dataset.DB{Tx: make([]dataset.Transaction, len(compact.Tx)), NumItems: spread * compact.NumItems}
	for i, row := range compact.Tx {
		for _, it := range row {
			wide.Tx[i] = append(wide.Tx[i], spread*it)
		}
	}
	run := func(db *dataset.DB, c mine.Collector) metrics.Snapshot {
		rec := metrics.NewRecorder()
		if err := New(Options{Metrics: rec}).Mine(db, 20, c); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot()
	}
	got, want := mine.ResultSet{}, mine.ResultSet{}
	wideSnap := run(wide, got)
	compactSnap := run(compact, spreadCollector{want, spread})
	if len(want) < 100 || !got.Equal(want) {
		t.Fatalf("%d itemsets compact, %d spread; differences:\n%s", len(want), len(got), got.Diff(want, 10))
	}
	extra := uint64(wide.NumItems - compact.NumItems)
	t.Logf("%d nodes; support countings %d compact, %d spread", compactSnap.Nodes, compactSnap.Supports, wideSnap.Supports)
	if wideSnap.Nodes != compactSnap.Nodes || wideSnap.Supports > compactSnap.Supports+extra {
		t.Fatalf("spread run: %d nodes, %d support countings; compact run: %d nodes, %d support countings; the root's extra alphabet is %d",
			wideSnap.Nodes, wideSnap.Supports, compactSnap.Nodes, compactSnap.Supports, extra)
	}
}

// spreadCollector collects each itemset into a ResultSet with its item
// ids multiplied by by.
type spreadCollector struct {
	mine.ResultSet
	by dataset.Item
}

func (c spreadCollector) Collect(items []dataset.Item, support int) {
	scaled := make([]dataset.Item, len(items))
	for i, it := range items {
		scaled[i] = c.by * it
	}
	c.ResultSet.Collect(scaled, support)
}
