package eclat_test

import (
	"fmt"
	"testing"

	"fpm"
)

// TestParallelDoesSequentialWork checks that Eclat under the work-stealing
// pool runs the sequential kernel's search: at every worker count it
// expands the same nodes, does the same support countings and prunes, and
// emits the same itemsets with the same supports. A parallel path with its
// own first-level decomposition did different work (on the repository
// benchmark's skew6k corpus at support 350, 29,101 nodes against the
// sequential kernel's 29,224).
func TestParallelDoesSequentialWork(t *testing.T) {
	for _, c := range []struct {
		name   string
		db     *fpm.DB
		minsup int
	}{
		{"quest", fpm.GenerateQuest(fpm.QuestConfig{Transactions: 800, AvgLen: 12, AvgPatternLen: 4, Items: 120, Patterns: 40, Seed: 3}), 16},
		// skew6k's generator at an eighth of its documents.
		{"zipf", fpm.GenerateCorpus(fpm.CorpusConfig{Docs: 750, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
			Topics: 8, TopicShare: 0.7, TopicPool: 50, Seed: 21}), 87},
	} {
		for _, ps := range []fpm.PatternSet{0, fpm.Applicable(fpm.Eclat)} {
			t.Run(c.name+"/"+ps.String(), func(t *testing.T) {
				seq, want := mineCounted(t, c.db, ps, c.minsup, 1)
				if len(seq) == 0 {
					t.Fatal("degenerate workload: no frequent itemsets")
				}
				for _, workers := range []int{2, 4} {
					// Cutoff 1 lets every class the pool would take become a task.
					got, snap := mineCounted(t, c.db, ps, c.minsup, workers, fpm.ParallelCutoff(1))
					if snap.Nodes != want.Nodes || snap.Supports != want.Supports ||
						snap.Prunes != want.Prunes || snap.Emitted != want.Emitted {
						t.Errorf("workers=%d: nodes/supports/prunes/emitted = %d/%d/%d/%d, sequential %d/%d/%d/%d",
							workers, snap.Nodes, snap.Supports, snap.Prunes, snap.Emitted,
							want.Nodes, want.Supports, want.Prunes, want.Emitted)
					}
					if len(got) != len(seq) {
						t.Errorf("workers=%d: %d itemsets, sequential %d", workers, len(got), len(seq))
					}
					for k, s := range seq {
						if got[k] != s {
							t.Errorf("workers=%d: itemset %s has support %d, sequential %d", workers, k, got[k], s)
							break
						}
					}
				}
			})
		}
	}
}

// mineCounted mines db with Eclat through fpm.WithMetrics and returns the
// itemsets keyed by their items, with the run's counters.
func mineCounted(t *testing.T, db *fpm.DB, ps fpm.PatternSet, minsup, workers int, opts ...fpm.ParallelOption) (map[string]int, fpm.Snapshot) {
	t.Helper()
	sets, snap, err := fpm.WithMetrics(db, fpm.Eclat, ps, minsup, workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]int, len(sets))
	for _, s := range sets {
		m[fmt.Sprint(s.Items)] = s.Support
	}
	return m, snap
}
