package eclat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

// allVariants lists every pattern combination valid for Eclat (Table 4).
func allVariants() []*Miner {
	return []*Miner{
		New(Options{}),
		New(Options{Patterns: mine.PatternSet(mine.Lex)}),
		New(Options{Patterns: mine.PatternSet(mine.SIMD)}),
		New(Options{Patterns: mine.PatternSet(mine.Lex | mine.SIMD)}),
	}
}

func TestHandWorked(t *testing.T) {
	// Same fixture as the brute-force test: supports computed by hand.
	db := dataset.New([]dataset.Transaction{{0, 1}, {0, 1, 2}, {0, 2}})
	want := mine.ResultSet{"0": 3, "1": 2, "2": 2, "0,1": 2, "0,2": 2}
	for _, m := range allVariants() {
		rs := mine.ResultSet{}
		if err := m.Mine(db, 2, rs); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !rs.Equal(want) {
			t.Fatalf("%s = %v, want %v\n%s", m.Name(), rs, want, rs.Diff(want, 10))
		}
	}
}

func TestPaperTable1Database(t *testing.T) {
	// The paper's Table 1 DB (a..f = 0..5), minsup 3: frequent itemsets
	// are c(4), f(4), a(3), cf(4), ca(3), fa(3), cfa(3).
	db := dataset.New([]dataset.Transaction{
		{0, 2, 5}, {1, 2, 5}, {0, 2, 5}, {3, 4}, {0, 1, 2, 3, 4, 5},
	})
	db.Normalize()
	want := mine.ResultSet{"2": 4, "5": 4, "0": 3, "2,5": 4, "0,2": 3, "0,5": 3, "0,2,5": 3}
	for _, m := range allVariants() {
		rs := mine.ResultSet{}
		if err := m.Mine(db, 3, rs); err != nil {
			t.Fatal(err)
		}
		if !rs.Equal(want) {
			t.Fatalf("%s:\n%s", m.Name(), rs.Diff(want, 10))
		}
	}
}

func TestEdgeCases(t *testing.T) {
	m := New(Options{})
	if err := m.Mine(dataset.New(nil), 1, mine.ResultSet{}); err != nil {
		t.Fatalf("empty DB: %v", err)
	}
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}}), 0, mine.ResultSet{}); err == nil {
		t.Fatal("minSupport 0 accepted")
	}
	// Support above every frequency → nothing mined.
	rs := mine.ResultSet{}
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}, {1}}), 3, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("mined %v at impossible support", rs)
	}
}

// Property: every variant agrees with the brute-force oracle on random
// small databases.
func TestMatchesBruteForceProperty(t *testing.T) {
	variants := allVariants()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 20, 8, 6)
		minsup := 1 + rng.Intn(4)
		want := mine.ResultSet{}
		if err := (mine.BruteForce{}).Mine(db, minsup, want); err != nil {
			return false
		}
		for _, m := range variants {
			rs := mine.ResultSet{}
			if err := m.Mine(db, minsup, rs); err != nil {
				return false
			}
			if !rs.Equal(want) {
				t.Logf("%s (seed %d, minsup %d):\n%s", m.Name(), seed, minsup, rs.Diff(want, 5))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestVariantsAgreeOnGenerated cross-checks all variants on a
// medium Quest workload where brute force is infeasible.
func TestVariantsAgreeOnGenerated(t *testing.T) {
	db := gen.Quest(gen.QuestConfig{Transactions: 600, AvgLen: 12, AvgPatternLen: 4, Items: 60, Patterns: 25, Seed: 99})
	minsup := 30
	var want mine.ResultSet
	for _, m := range allVariants() {
		rs := mine.ResultSet{}
		if err := m.Mine(db, minsup, rs); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rs
			if len(want) == 0 {
				t.Fatal("degenerate workload: no frequent itemsets")
			}
			continue
		}
		if !rs.Equal(want) {
			t.Fatalf("%s disagrees:\n%s", m.Name(), rs.Diff(want, 10))
		}
	}
}

func TestMineDoesNotMutateInput(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{2, 0}, {1, 0}})
	db.Normalize()
	before := db.Clone()
	m := New(Options{Patterns: mine.PatternSet(mine.Lex | mine.SIMD)})
	if err := m.Mine(db, 1, mine.ResultSet{}); err != nil {
		t.Fatal(err)
	}
	for i := range db.Tx {
		for j := range db.Tx[i] {
			if db.Tx[i][j] != before.Tx[i][j] {
				t.Fatal("Mine mutated input database")
			}
		}
	}
}

func randomDB(rng *rand.Rand, n, m, maxLen int) *dataset.DB {
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		l := rng.Intn(maxLen + 1)
		tr := make(dataset.Transaction, 0, l)
		for j := 0; j < l; j++ {
			tr = append(tr, dataset.Item(rng.Intn(m)))
		}
		tx[i] = tr
	}
	db := dataset.New(tx)
	if db.NumItems < m {
		db.NumItems = m
	}
	db.Normalize()
	return db
}

// eagerSpawner accepts every offered class and runs it synchronously,
// recursively re-entering itself.
type eagerSpawner struct {
	c      mine.Collector
	offers int
}

func (s *eagerSpawner) WouldSteal(weight int) bool { return true }
func (s *eagerSpawner) Cancelled() bool            { return false }
func (s *eagerSpawner) Offer(weight int, task mine.TaskFunc) bool {
	s.offers++
	if err := task(s.c, s); err != nil {
		panic(err)
	}
	return true
}

// TestMineSplitMatchesMine asserts that handing every equivalence class to
// a spawner yields exactly the sequential result set for every variant.
func TestMineSplitMatchesMine(t *testing.T) {
	db := gen.Quest(gen.QuestConfig{Transactions: 500, AvgLen: 12, AvgPatternLen: 4, Items: 50, Patterns: 20, Seed: 7})
	for _, m := range allVariants() {
		want := mine.ResultSet{}
		if err := m.Mine(db, 20, want); err != nil {
			t.Fatal(err)
		}
		got := mine.ResultSet{}
		sp := &eagerSpawner{c: got}
		if err := m.MineSplit(db, 20, got, sp); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if sp.offers == 0 {
			t.Fatalf("%s: no class was ever offered", m.Name())
		}
		if !got.Equal(want) {
			t.Fatalf("%s: split disagrees:\n%s", m.Name(), got.Diff(want, 8))
		}
	}
}
