package eclat_test

import (
	"testing"

	"fpm"
)

// TestTunedAllocsBoundedByEmitted checks that a pruned candidate costs no
// allocation: the tuned mine's allocations grow with the itemsets it emits,
// not with the support countings it performs, which outnumber them several
// times over on this corpus.
func TestTunedAllocsBoundedByEmitted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := fpm.GenerateQuest(fpm.QuestConfig{Transactions: 1500, AvgLen: 16, AvgPatternLen: 5, Items: 300, Patterns: 60, Seed: 7})
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
	// Per emitted itemset: the collector's copy, the restored item labels,
	// the surviving candidate's vector (header and words) and at most one
	// class slice. Per mine: one relabelled row per transaction, one vector
	// per item and the recorder.
	limit := 5*snap.Emitted + 2*uint64(db.Len()) + 1000
	if uint64(allocs) > limit {
		t.Fatalf("%.0f allocations for %d itemsets and %d support countings; limit %d",
			allocs, snap.Emitted, snap.Supports, limit)
	}
}
