package eclat_test

import (
	"testing"

	"fpm"
)

// TestLexDoesNotAddSupportCountings checks that P1 costs Eclat no extra
// AND+count work: with the classes expanded least frequent item first, the
// Lex+SIMD mine does at most the support countings of the SIMD-only mine
// and emits the same itemsets. Expanding in P1's rank order, most frequent
// item first, did 2.8 times SIMD's countings on the Quest corpus.
func TestLexDoesNotAddSupportCountings(t *testing.T) {
	for _, c := range []struct {
		name   string
		db     *fpm.DB
		minsup int
	}{
		{"quest", fpm.GenerateQuest(fpm.QuestConfig{Transactions: 1500, AvgLen: 16, AvgPatternLen: 5, Items: 300, Patterns: 60, Seed: 7}), 30},
		// The repository benchmark's skew6k corpus at an eighth of its
		// documents and a quarter of its support.
		{"zipf", fpm.GenerateCorpus(fpm.CorpusConfig{Docs: 750, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
			Topics: 8, TopicShare: 0.7, TopicPool: 50, Seed: 21}), 87},
	} {
		t.Run(c.name, func(t *testing.T) {
			mine := func(ps fpm.PatternSet) fpm.Snapshot {
				t.Helper()
				_, snap, err := fpm.WithMetrics(c.db, fpm.Eclat, ps, c.minsup, 1)
				if err != nil {
					t.Fatal(err)
				}
				return snap
			}
			simd := mine(fpm.PatternSet(fpm.SIMD))
			lex := mine(fpm.PatternSet(fpm.Lex | fpm.SIMD))
			t.Logf("Lex+SIMD: %d support countings for %d itemsets; SIMD: %d for %d",
				lex.Supports, lex.Emitted, simd.Supports, simd.Emitted)
			if lex.Emitted != simd.Emitted {
				t.Fatalf("Lex+SIMD emitted %d itemsets, SIMD %d", lex.Emitted, simd.Emitted)
			}
			if lex.Supports > simd.Supports {
				t.Fatalf("Lex+SIMD did %d support countings, SIMD %d", lex.Supports, simd.Supports)
			}
		})
	}
}
