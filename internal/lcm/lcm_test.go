package lcm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

// allVariants enumerates meaningful pattern combinations for LCM (Table 4).
func allVariants() []*Miner {
	sets := []mine.PatternSet{
		0,
		mine.PatternSet(mine.Lex),
		mine.PatternSet(mine.Aggregate),
		mine.PatternSet(mine.Compact),
		mine.PatternSet(mine.Tile),
		mine.PatternSet(mine.Prefetch),
		mine.PatternSet(mine.Aggregate | mine.Compact),
		mine.PatternSet(mine.Lex | mine.Tile),
		mine.Applicable(mine.LCM),
	}
	var out []*Miner
	for _, s := range sets {
		out = append(out, New(Options{Patterns: s}))
	}
	// Tiny tiles stress the tile-boundary logic.
	out = append(out, New(Options{Patterns: mine.PatternSet(mine.Tile), TileRows: 1}))
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
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}}), -1, mine.ResultSet{}); err == nil {
		t.Fatal("negative minSupport accepted")
	}
	rs := mine.ResultSet{}
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}, {1}}), 3, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("mined %v at impossible support", rs)
	}
	// All-duplicate database exercises RmDupTrans weight merging.
	dup := dataset.New([]dataset.Transaction{{0, 1}, {0, 1}, {0, 1}})
	rs = mine.ResultSet{}
	if err := m.Mine(dup, 3, rs); err != nil {
		t.Fatal(err)
	}
	want := mine.ResultSet{"0": 3, "1": 3, "0,1": 3}
	if !rs.Equal(want) {
		t.Fatalf("duplicates: %v, want %v", rs, want)
	}
}

func TestRmDupTransMergesWeights(t *testing.T) {
	d := &cdb{
		items: 3,
		tx:    [][]dataset.Item{{0, 1}, {2}, {0, 1}, {2}, {0}},
		w:     []int32{1, 2, 3, 4, 5},
	}
	got := new(state).rmDupTrans(d)
	if len(got.tx) != 3 {
		t.Fatalf("%d unique transactions, want 3", len(got.tx))
	}
	// Weight lookup by content.
	wBy := map[string]int32{}
	for i, tr := range got.tx {
		wBy[mine.Key(tr)] = got.w[i]
	}
	if wBy["0,1"] != 4 || wBy["2"] != 6 || wBy["0"] != 5 {
		t.Fatalf("merged weights %v", wBy)
	}
}

// TestRmDupTransReusesBuckets checks that a call sees the state's bucket
// table empty, though the previous call left every row's index in it.
func TestRmDupTransReusesBuckets(t *testing.T) {
	st := new(state)
	st.rmDupTrans(&cdb{items: 4, tx: [][]dataset.Item{{0}, {1}, {2}, {3}}, w: []int32{1, 1, 1, 1}})
	got := st.rmDupTrans(&cdb{items: 4, tx: [][]dataset.Item{{3}, {1}, {2}, {3}}, w: []int32{1, 1, 1, 1}})
	wBy := map[string]int32{}
	for i, tr := range got.tx {
		wBy[mine.Key(tr)] = got.w[i]
	}
	if len(got.tx) != 3 || wBy["3"] != 2 || wBy["1"] != 1 || wBy["2"] != 1 {
		t.Fatalf("second call merged to %v, want 3:2, 1:1, 2:1", wBy)
	}
}

func TestRmDupTransTrivial(t *testing.T) {
	d := &cdb{items: 1, tx: [][]dataset.Item{{0}}, w: []int32{1}}
	if got := new(state).rmDupTrans(d); got != d {
		t.Fatal("single-transaction database should be returned unchanged")
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

func TestMineDoesNotMutateInput(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0, 2}, {0, 1}})
	db.Normalize()
	before := db.Clone()
	m := New(Options{Patterns: mine.Applicable(mine.LCM)})
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

// eagerSpawner accepts every offered subtree and runs it synchronously,
// recursively re-entering itself — the worst case for state isolation
// between a spawning recursion and its stolen tasks.
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

// TestMineSplitMatchesMine asserts that handing every subtree to a
// spawner yields exactly the sequential result set, for every pattern
// variant (including the tiled root path).
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
			t.Fatalf("%s: no subtree was ever offered", m.Name())
		}
		if !got.Equal(want) {
			t.Fatalf("%s: split disagrees:\n%s", m.Name(), got.Diff(want, 8))
		}
	}
}
