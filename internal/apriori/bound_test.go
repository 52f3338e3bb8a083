package apriori

import (
	"math/big"
	"math/rand"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

// candidateBound is the Geerts–Goethals–Van den Bussche upper bound on
// the number of (k+1)-candidates levelwise generation can produce from m
// frequent k-itemsets (PAPERS.md, "A Tight Upper Bound on the Number of
// Candidate Patterns"). Write m in its k-canonical form
//
//	m = C(m_k, k) + C(m_{k-1}, k-1) + ... + C(m_r, r),  m_k > ... > m_r ≥ r ≥ 1,
//
// taking the largest m_i at each step; the bound is then
// C(m_k, k+1) + C(m_{k-1}, k) + ... + C(m_r, r+1). It holds for any
// family of m k-sets: it counts the (k+1)-sets whose k-subsets all lie in
// the family, which is what apriori-gen keeps.
func candidateBound(m, k int) *big.Int {
	bound := new(big.Int)
	rem := big.NewInt(int64(m))
	binom := func(n, r int) *big.Int { return new(big.Int).Binomial(int64(n), int64(r)) }
	for i := k; i >= 1 && rem.Sign() > 0; i-- {
		mi := i
		for binom(mi+1, i).Cmp(rem) <= 0 {
			mi++
		}
		rem.Sub(rem, binom(mi, i))
		bound.Add(bound, binom(mi, i+1))
	}
	return bound
}

func TestCandidateBoundHandWorked(t *testing.T) {
	for _, c := range []struct{ m, k, want int }{
		{4, 1, 6},   // 4 items: C(4,2) pairs
		{6, 2, 4},   // 6 = C(4,2): all pairs of 4 items close 4 triples
		{7, 2, 4},   // 7 = C(4,2) + C(1,1): the extra pair closes nothing
		{10, 2, 10}, // 10 = C(5,2)
		{5, 3, 1},   // 5 = C(4,3) + C(2,2): one 4-set
	} {
		if got := candidateBound(c.m, c.k); got.Cmp(big.NewInt(int64(c.want))) != 0 {
			t.Errorf("candidateBound(%d, %d) = %v, want %d", c.m, c.k, got, c.want)
		}
	}
}

// checkBound asserts that apriori-gen on level (frequent k-itemsets, all
// of one size) produces at most candidateBound(len(level), k) candidates,
// and returns them.
func checkBound(t *testing.T, level [][]dataset.Item) [][]dataset.Item {
	t.Helper()
	k := len(level[0])
	cands := generateCandidates(level)
	if b := candidateBound(len(level), k); big.NewInt(int64(len(cands))).Cmp(b) > 0 {
		t.Fatalf("%d frequent %d-itemsets gave %d candidates, above the bound %v", len(level), k, len(cands), b)
	}
	return cands
}

// TestCandidatesWithinBoundOnQuest feeds apriori-gen the real levels of a
// Quest mine.
func TestCandidatesWithinBoundOnQuest(t *testing.T) {
	db := gen.Quest(gen.QuestConfig{Transactions: 600, AvgLen: 10, AvgPatternLen: 4, Items: 60, Patterns: 20, Seed: 5})
	var sc mine.SliceCollector
	if err := New(Options{}).Mine(db, 12, &sc); err != nil {
		t.Fatal(err)
	}
	levels := map[int][][]dataset.Item{}
	for _, s := range sc.Sets {
		levels[len(s.Items)] = append(levels[len(s.Items)], s.Items)
	}
	if len(levels) < 4 {
		t.Fatalf("degenerate workload: frequent itemsets reach only size %d", len(levels))
	}
	for k := 1; len(levels[k]) > 0; k++ {
		checkBound(t, levels[k])
	}
}

// TestCandidatesWithinBoundOnRandomLevels feeds apriori-gen random
// downward-closed levels: a random set of items, then at every level a
// random share of the previous level's candidates, as a levelwise mine
// with random supports would keep. A small alphabet keeps the levels
// dense, so the joins and the prune step both have work.
func TestCandidatesWithinBoundOnRandomLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(9)
		keep := 0.5 + 0.5*rng.Float64()
		var level [][]dataset.Item
		for it := 0; it < n; it++ {
			if rng.Float64() < keep {
				level = append(level, []dataset.Item{dataset.Item(it)})
			}
		}
		for len(level) > 0 {
			var next [][]dataset.Item
			for _, c := range checkBound(t, level) {
				if rng.Float64() < keep {
					next = append(next, c)
				}
			}
			level = next
		}
	}
}
