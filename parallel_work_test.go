package fpm

import (
	"fmt"
	"testing"
)

// TestParallelDoesSequentialWork checks that every kernel that splits
// through its own recursion runs the sequential kernel's search under the
// work-stealing pool: at every worker count it expands the same nodes,
// does the same support countings and prunes, and emits the same itemsets
// with the same supports. A pool that mined one projected database per
// frequent item did different work (on the repository benchmark's skew6k
// corpus at support 350: Eclat 29,101 nodes against 29,224, FP-Growth
// 14,610 against 14,611).
func TestParallelDoesSequentialWork(t *testing.T) {
	corpora := []struct {
		name   string
		db     *DB
		minsup int
	}{
		{"quest", GenerateQuest(QuestConfig{Transactions: 800, AvgLen: 12, AvgPatternLen: 4, Items: 120, Patterns: 40, Seed: 3}), 16},
		// skew6k's generator at an eighth of its documents.
		{"zipf", GenerateCorpus(CorpusConfig{Docs: 750, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
			Topics: 8, TopicShare: 0.7, TopicPool: 50, Seed: 21}), 87},
	}
	// A subtree is offered only while some worker is idle, so one short run
	// may offer none. Over its four forced-split runs every kernel offers
	// subtrees on every corpus; at the default cutoff FP-Growth offers none
	// on the Quest corpus.
	offered := map[string]uint64{}
	for _, algo := range []Algorithm{Eclat, FPGrowth} {
		for _, c := range corpora {
			pair := fmt.Sprintf("%s/%s", algo, c.name)
			offered[pair] = 0
			for _, ps := range []PatternSet{0, Applicable(algo)} {
				t.Run(fmt.Sprintf("%s/%s/%s", algo, c.name, ps), func(t *testing.T) {
					seq, want := mineWork(t, c.db, algo, ps, c.minsup, 1)
					if len(seq) == 0 {
						t.Fatal("degenerate workload: no frequent itemsets")
					}
					for _, workers := range []int{2, 4} {
						// Cutoff 1 lets every subtree the pool would take become a task.
						got, snap := mineWork(t, c.db, algo, ps, c.minsup, workers, parallelCutoff(1))
						if snap.Parallel != nil {
							offered[pair] += snap.Parallel.TasksOffered
						}
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
	for pair, n := range offered {
		if n == 0 {
			t.Errorf("%s: no forced-split run offered a subtree to the pool", pair)
		}
	}
}

// parallelCutoff sets the pool's spawn cutoff for one run, so a test can
// force splits on an input too small to clear parallel.DefaultCutoff.
func parallelCutoff(weight int) ParallelOption {
	return func(o *runOptions) { o.pool.Cutoff = weight }
}

// mineWork mines db through WithMetrics and returns the itemsets keyed by
// their items, with the run's counters.
func mineWork(t *testing.T, db *DB, algo Algorithm, ps PatternSet, minsup, workers int, opts ...ParallelOption) (map[string]int, Snapshot) {
	t.Helper()
	sets, snap, err := WithMetrics(db, algo, ps, minsup, workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]int, len(sets))
	for _, s := range sets {
		m[fmt.Sprint(s.Items)] = s.Support
	}
	return m, snap
}
