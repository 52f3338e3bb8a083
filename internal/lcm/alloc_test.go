package lcm

import (
	"testing"

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
