package fpgrowth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

// allVariants enumerates pattern combinations valid for FP-Growth
// (Table 4).
func allVariants() []*Miner {
	sets := []mine.PatternSet{
		0,
		mine.PatternSet(mine.Lex),
		mine.PatternSet(mine.Adapt),
		mine.PatternSet(mine.Adapt | mine.Aggregate),
		mine.PatternSet(mine.Compact),
		mine.PatternSet(mine.Prefetch),
		mine.PatternSet(mine.PrefetchPtr),
		mine.Applicable(mine.FPGrowth),
	}
	var out []*Miner
	for _, s := range sets {
		out = append(out, New(Options{Patterns: s}))
	}
	return out
}

func TestHandWorked(t *testing.T) {
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
	rs := mine.ResultSet{}
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}, {1}}), 3, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("mined %v at impossible support", rs)
	}
	// Single long transaction: a pure chain tree (deep parent walk).
	chain := dataset.New([]dataset.Transaction{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	arena := New(Options{Patterns: mine.PatternSet(mine.Adapt)})
	rs = mine.ResultSet{}
	if err := arena.Mine(chain, 1, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1023 { // 2^10 - 1 subsets
		t.Fatalf("chain mined %d itemsets, want 1023", len(rs))
	}
}

// Property: every variant agrees with the brute-force oracle.
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

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

// TestTreeLayoutsProduceSameStructure builds both layouts from the same
// base and checks node counts and per-item supports agree.
func TestTreeLayoutsProduceSameStructure(t *testing.T) {
	base := []weightedTx{
		{items: []dataset.Item{0, 1, 2}, w: 2},
		{items: []dataset.Item{0, 1}, w: 1},
		{items: []dataset.Item{0, 3}, w: 4},
		{items: []dataset.Item{2}, w: 1},
	}
	pt := &pointerTree{}
	pt.build(cloneBase(base), 4)
	ct := &compactTree{}
	ct.build(cloneBase(base), 4)
	for it := dataset.Item(0); it < 4; it++ {
		if pt.support(it) != ct.support(it) {
			t.Fatalf("support(%d): pointer %d vs compact %d", it, pt.support(it), ct.support(it))
		}
	}
	// Conditional bases must be identical as multisets of (path, weight).
	for it := dataset.Item(0); it < 4; it++ {
		pb := map[string]int32{}
		cb := map[string]int32{}
		pt.condBase(it, func(p []dataset.Item, w int32) { pb[mine.Key(p)] += w })
		ct.condBase(it, func(p []dataset.Item, w int32) { cb[mine.Key(p)] += w })
		if len(pb) != len(cb) {
			t.Fatalf("item %d: cond base sizes differ: %v vs %v", it, pb, cb)
		}
		for k, v := range pb {
			if cb[k] != v {
				t.Fatalf("item %d: cond base %q: %d vs %d", it, k, v, cb[k])
			}
		}
	}
}

func cloneBase(base []weightedTx) []weightedTx {
	out := make([]weightedTx, len(base))
	for i, r := range base {
		out[i] = weightedTx{items: append([]dataset.Item(nil), r.items...), w: r.w}
	}
	return out
}

// queueSpawner accepts every offered base and runs it only after the
// offering recursion has moved on, so a task that still aliased the
// recursion's reused buffers would mine overwritten rows.
type queueSpawner struct {
	c     mine.Collector
	tasks []mine.TaskFunc
}

func (s *queueSpawner) WouldSteal(weight int) bool { return true }
func (s *queueSpawner) Cancelled() bool            { return false }
func (s *queueSpawner) Offer(weight int, task mine.TaskFunc) bool {
	s.tasks = append(s.tasks, task)
	return true
}

// TestMineSplitMatchesMine asserts that handing every conditional pattern
// base to a spawner yields exactly the sequential result set for every
// variant.
func TestMineSplitMatchesMine(t *testing.T) {
	db := gen.Quest(gen.QuestConfig{Transactions: 500, AvgLen: 12, AvgPatternLen: 4, Items: 50, Patterns: 20, Seed: 7})
	for _, m := range allVariants() {
		want := mine.ResultSet{}
		if err := m.Mine(db, 20, want); err != nil {
			t.Fatal(err)
		}
		got := mine.ResultSet{}
		sp := &queueSpawner{c: got}
		if err := m.MineSplit(db, 20, got, sp); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		offers := 0
		for ; offers < len(sp.tasks); offers++ {
			if err := sp.tasks[offers](got, sp); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
		}
		if offers == 0 {
			t.Fatalf("%s: no base was ever offered", m.Name())
		}
		if !got.Equal(want) {
			t.Fatalf("%s: split disagrees:\n%s", m.Name(), got.Diff(want, 8))
		}
	}
}

func TestMineDoesNotMutateInput(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0, 2}, {0, 1}})
	db.Normalize()
	before := db.Clone()
	m := New(Options{Patterns: mine.Applicable(mine.FPGrowth)})
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
