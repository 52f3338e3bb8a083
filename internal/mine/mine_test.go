package mine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
)

func TestPatternSetOps(t *testing.T) {
	var s PatternSet
	s = s.With(Lex).With(Tile)
	if !s.Has(Lex) || !s.Has(Tile) || s.Has(SIMD) {
		t.Fatalf("With/Has wrong: %v", s)
	}
	s = s.Without(Lex)
	if s.Has(Lex) || !s.Has(Tile) {
		t.Fatalf("Without wrong: %v", s)
	}
}

func TestPatternSetString(t *testing.T) {
	if got := PatternSet(0).String(); got != "baseline" {
		t.Fatalf("empty set = %q", got)
	}
	s := PatternSet(Lex | SIMD)
	if got := s.String(); got != "Lex+SIMD" {
		t.Fatalf("String = %q, want Lex+SIMD", got)
	}
	if n := len(s.Patterns()); n != 2 {
		t.Fatalf("Patterns len = %d", n)
	}
}

// TestParsePatterns covers the one pattern-list parser behind the CLI
// flags and the job-request field: names are comma-separated, trimmed and
// case-insensitive.
func TestParsePatterns(t *testing.T) {
	cases := []struct {
		in   string
		algo Algorithm
		want PatternSet
	}{
		{"lex,simd", Eclat, PatternSet(Lex | SIMD)},
		{"", LCM, 0},
		{"  ", LCM, 0},
		{"all", LCM, Applicable(LCM)},
		{"ALL", FPGrowth, Applicable(FPGrowth)},
		{"Lex,SIMD", Eclat, PatternSet(Lex | SIMD)},
		{"PREFETCHPTR,prefetch", FPGrowth, PatternSet(PrefetchPtr | Prefetch)},
		{" lex , Tile ,compact ", LCM, PatternSet(Lex | Tile | Compact)},
		{"aggregate,adapt", FPGrowth, PatternSet(Aggregate | Adapt)},
	}
	for _, c := range cases {
		got, err := ParsePatterns(c.in, c.algo)
		if err != nil || got != c.want {
			t.Errorf("ParsePatterns(%q, %s) = %v, %v; want %v", c.in, c.algo, got, err, c.want)
		}
	}
	for _, bad := range []string{"bogus", "lex,bogus", "lex,", "all,lex"} {
		if _, err := ParsePatterns(bad, LCM); err == nil {
			t.Errorf("ParsePatterns(%q) accepted an unknown pattern", bad)
		}
	}
}

// TestApplicableMatchesTable4 pins the applicability matrix to the paper's
// Table 4 (the "√" cells).
func TestApplicableMatchesTable4(t *testing.T) {
	cases := []struct {
		algo Algorithm
		want PatternSet
	}{
		{LCM, PatternSet(Lex | Aggregate | Compact | Tile | Prefetch)},
		{Eclat, PatternSet(Lex | SIMD)},
		{FPGrowth, PatternSet(Lex | Adapt | Aggregate | Compact | PrefetchPtr | Prefetch)},
		{Apriori, 0},
	}
	for _, c := range cases {
		if got := Applicable(c.algo); got != c.want {
			t.Errorf("Applicable(%s) = %v, want %v", c.algo, got, c.want)
		}
	}
}

// Key must not sort: a kernel emitting items out of order has to show up
// as a ResultSet mismatch.
func TestKeyKeepsItemOrder(t *testing.T) {
	a := Key([]dataset.Item{1, 2, 3})
	b := Key([]dataset.Item{3, 2, 1})
	if a == b || a != "1,2,3" {
		t.Fatalf("Key sorts or misjoins: %q vs %q", a, b)
	}
	if Key(nil) != "" {
		t.Fatalf("Key(nil) = %q", Key(nil))
	}
}

func TestCollectors(t *testing.T) {
	var cc CountCollector
	var sc SliceCollector
	rs := ResultSet{}
	buf := []dataset.Item{1, 2}
	for _, c := range []Collector{&cc, &sc, rs} {
		c.Collect(buf, 5)
	}
	// Mutating the buffer must not corrupt stored results.
	buf[0] = 9
	if cc.N != 1 || cc.TotalSupport != 5 {
		t.Fatalf("CountCollector: %+v", cc)
	}
	if len(sc.Sets) != 1 || sc.Sets[0].Items[0] != 1 || sc.Sets[0].Support != 5 {
		t.Fatalf("SliceCollector: %+v", sc.Sets)
	}
	if rs["1,2"] != 5 {
		t.Fatalf("ResultSet: %v", rs)
	}
}

// TestSliceCollectorItemsIsolated checks that itemsets copied into the
// same arena chunk stay apart: appending to one stored Items must not
// change its neighbour's, and itemsets spanning a chunk boundary keep
// their contents.
func TestSliceCollectorItemsIsolated(t *testing.T) {
	var sc SliceCollector
	sc.Collect([]dataset.Item{1, 2}, 3)
	sc.Collect([]dataset.Item{4, 5}, 6)
	grown := append(sc.Sets[0].Items, 7)
	if got := sc.Sets[1].Items; got[0] != 4 || got[1] != 5 {
		t.Fatalf("appending %v to the first itemset changed the second to %v", grown, got)
	}
	big := make([]dataset.Item, collectChunk+1)
	for i := range big {
		big[i] = dataset.Item(i)
	}
	// Ten 1000-item itemsets cross two chunk boundaries; the last one
	// does not fit any chunk.
	for n := 0; n < 10; n++ {
		sc.Collect(big[:1000], n)
	}
	sc.Collect(big, 10)
	for i, s := range sc.Sets[2:] {
		for j, it := range s.Items {
			if it != dataset.Item(j) {
				t.Fatalf("itemset %d item %d = %d after later collects", i+2, j, it)
			}
		}
	}
	if got := len(sc.Sets[len(sc.Sets)-1].Items); got != len(big) {
		t.Fatalf("itemset larger than a chunk stored %d items, want %d", got, len(big))
	}
}

func TestResultSetEqualAndDiff(t *testing.T) {
	a := ResultSet{"1": 2, "1,2": 1}
	b := ResultSet{"1": 2, "1,2": 1}
	if !a.Equal(b) {
		t.Fatal("equal sets compare unequal")
	}
	b["1,2"] = 9
	if a.Equal(b) {
		t.Fatal("unequal supports compare equal")
	}
	if d := a.Diff(b, 10); !strings.Contains(d, "support mismatch") {
		t.Fatalf("Diff = %q", d)
	}
	c := ResultSet{"1": 2}
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("different sizes compare equal")
	}
	if d := a.Diff(c, 10); !strings.Contains(d, "only in left") {
		t.Fatalf("Diff = %q", d)
	}
}

// TestBruteForceHandWorked checks against a fully hand-computed lattice.
// DB: {0,1}, {0,1,2}, {0,2}, minsup 2.
// Supports: {0}=3 {1}=2 {2}=2 {0,1}=2 {0,2}=2 {1,2}=1 {0,1,2}=1.
func TestBruteForceHandWorked(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0, 1}, {0, 1, 2}, {0, 2}})
	rs := ResultSet{}
	if err := (BruteForce{}).Mine(db, 2, rs); err != nil {
		t.Fatal(err)
	}
	want := ResultSet{"0": 3, "1": 2, "2": 2, "0,1": 2, "0,2": 2}
	if !rs.Equal(want) {
		t.Fatalf("BruteForce = %v, want %v\n%s", rs, want, rs.Diff(want, 10))
	}
}

func TestBruteForceMinSupportOne(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0}, {1}})
	rs := ResultSet{}
	if err := (BruteForce{}).Mine(db, 1, rs); err != nil {
		t.Fatal(err)
	}
	want := ResultSet{"0": 1, "1": 1}
	if !rs.Equal(want) {
		t.Fatalf("got %v", rs)
	}
}

func TestBruteForceBadSupport(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0}})
	if err := (BruteForce{}).Mine(db, 0, ResultSet{}); err == nil {
		t.Fatal("minSupport 0 accepted")
	}
}

func TestBruteForceEmptyDB(t *testing.T) {
	rs := ResultSet{}
	if err := (BruteForce{}).Mine(dataset.New(nil), 1, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("empty DB mined %v", rs)
	}
}

// Property: every reported itemset's support equals its definitional
// support (number of subsumung transactions), and every subset of a
// frequent itemset is also reported (downward closure).
func TestBruteForceDefinitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 15, 7, 5)
		minsup := 1 + rng.Intn(4)
		var sc SliceCollector
		if err := (BruteForce{}).Mine(db, minsup, &sc); err != nil {
			return false
		}
		rs := ResultSet{}
		for _, s := range sc.Sets {
			rs[Key(s.Items)] = s.Support
		}
		for _, s := range sc.Sets {
			// Definitional support check.
			n := 0
			for _, tr := range db.Tx {
				if dataset.ContainsAll(tr, s.Items) {
					n++
				}
			}
			if n != s.Support || n < minsup {
				return false
			}
			// Downward closure: remove each item, subset must be present
			// with support >= this support.
			if len(s.Items) > 1 {
				for drop := range s.Items {
					sub := make([]dataset.Item, 0, len(s.Items)-1)
					sub = append(sub, s.Items[:drop]...)
					sub = append(sub, s.Items[drop+1:]...)
					if rs[Key(sub)] < s.Support {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSorted(t *testing.T) {
	got := intersectSorted([]int32{1, 3, 5, 7}, []int32{2, 3, 6, 7, 9})
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("intersectSorted = %v", got)
	}
	if len(intersectSorted(nil, []int32{1})) != 0 {
		t.Fatal("intersect with nil should be empty")
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

// TestImprovesMatchesTable2 pins the pattern-property matrix to the
// paper's Table 2.
func TestImprovesMatchesTable2(t *testing.T) {
	cases := []struct {
		p    Pattern
		want Property
	}{
		{Lex, SpatialLocality},
		{Adapt, SpatialLocality},
		{Aggregate, SpatialLocality | MemoryLatency},
		{Compact, SpatialLocality},
		{PrefetchPtr, MemoryLatency},
		{Prefetch, MemoryLatency},
		{Tile, TemporalLocality},
		{SIMD, Computation},
	}
	for _, c := range cases {
		if got := Improves(c.p); got != c.want {
			t.Errorf("Improves(%v) = %b, want %b", c.p, got, c.want)
		}
	}
	if Improves(Pattern(0)) != 0 {
		t.Error("unknown pattern should improve nothing")
	}
	if !SpatialLocality.Has(SpatialLocality) || SpatialLocality.Has(Computation) {
		t.Error("Property.Has wrong")
	}
}
