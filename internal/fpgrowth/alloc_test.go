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
