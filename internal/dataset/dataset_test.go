package dataset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func tx(items ...Item) Transaction { return Transaction(items) }

// txsEqual compares transaction lists treating nil and empty as equal.
func txsEqual(a, b []Transaction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestNewComputesAlphabet(t *testing.T) {
	db := New([]Transaction{tx(0, 2, 5), tx(1)})
	if db.NumItems != 6 {
		t.Fatalf("NumItems = %d, want 6", db.NumItems)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
}

func TestNewEmpty(t *testing.T) {
	db := New(nil)
	if db.NumItems != 0 || db.Len() != 0 {
		t.Fatalf("empty DB: got %+v", db)
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("empty DB should validate: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := New([]Transaction{tx(0, 1), tx(2)})
	cp := db.Clone()
	cp.Tx[0][0] = 7
	if db.Tx[0][0] != 0 {
		t.Fatal("Clone shares underlying storage")
	}
	if cp.NumItems != db.NumItems {
		t.Fatal("Clone lost NumItems")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		db   *DB
		ok   bool
	}{
		{"valid", &DB{Tx: []Transaction{tx(0, 1)}, NumItems: 2}, true},
		{"out of range", &DB{Tx: []Transaction{tx(0, 5)}, NumItems: 2}, false},
		{"negative", &DB{Tx: []Transaction{tx(-1)}, NumItems: 2}, false},
		{"duplicate", &DB{Tx: []Transaction{tx(1, 1)}, NumItems: 2}, false},
		{"unsorted is fine", &DB{Tx: []Transaction{tx(1, 0)}, NumItems: 2}, true},
	}
	for _, c := range cases {
		err := c.db.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNormalizeSortsAndDedups(t *testing.T) {
	db := New([]Transaction{tx(3, 1, 3, 0, 1)})
	db.Normalize()
	want := tx(0, 1, 3)
	if !reflect.DeepEqual(db.Tx[0], want) {
		t.Fatalf("Normalize = %v, want %v", db.Tx[0], want)
	}
}

func TestNormalizeEmptyAndSingle(t *testing.T) {
	db := New([]Transaction{{}, tx(4)})
	db.Normalize()
	if len(db.Tx[0]) != 0 || !reflect.DeepEqual(db.Tx[1], tx(4)) {
		t.Fatalf("Normalize mangled trivial transactions: %v", db.Tx)
	}
}

// TestNormalizeSkipsAscendingRows: rows that are already strictly
// ascending are left in place, every other row is sorted and deduplicated,
// and the alphabet Normalize returns is the one New computes from every
// item.
func TestNormalizeSkipsAscendingRows(t *testing.T) {
	rows := []Transaction{
		tx(1, 4, 9),       // ascending
		tx(9, 4, 1),       // descending
		tx(2, 7, 7, 3, 2), // duplicates
		{},                // empty
		tx(12),            // single item
		tx(0, 5, 6, 8),    // ascending
		tx(3, 3),          // only duplicates
	}
	want := []Transaction{tx(1, 4, 9), tx(1, 4, 9), tx(2, 3, 7), {}, tx(12), tx(0, 5, 6, 8), tx(3)}
	wantItems := New(rows).NumItems
	db := &DB{Tx: slices.Clone(rows)}
	ascending := []int{0, 5}
	before := make([]*Item, len(ascending))
	for i, r := range ascending {
		before[i] = &db.Tx[r][0]
	}
	got := db.Normalize()
	if !txsEqual(db.Tx, want) {
		t.Fatalf("Normalize = %v, want %v", db.Tx, want)
	}
	for i, r := range ascending {
		if &db.Tx[r][0] != before[i] || len(db.Tx[r]) != len(rows[r]) || cap(db.Tx[r]) != cap(rows[r]) {
			t.Fatalf("ascending row %d was rewritten: %v", r, db.Tx[r])
		}
	}
	if got != wantItems || got != 13 {
		t.Fatalf("Normalize returned alphabet %d, New computes %d", got, wantItems)
	}
	if db.NumItems != 0 {
		t.Fatalf("Normalize set NumItems to %d", db.NumItems)
	}
	if n := (&DB{}).Normalize(); n != 0 {
		t.Fatalf("empty database: alphabet %d, want 0", n)
	}
}

func TestFrequencies(t *testing.T) {
	db := New([]Transaction{tx(0, 1), tx(1, 2), tx(1)})
	f := db.Frequencies()
	want := []int{1, 3, 1}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("Frequencies = %v, want %v", f, want)
	}
}

func TestComputeStats(t *testing.T) {
	db := New([]Transaction{tx(0, 1), tx(0, 1), tx(2)})
	s := ComputeStats(db)
	if s.Transactions != 3 || s.Items != 3 || s.MaxLen != 2 {
		t.Fatalf("basic stats wrong: %+v", s)
	}
	if got, want := s.AvgLen, 5.0/3.0; got != want {
		t.Fatalf("AvgLen = %v, want %v", got, want)
	}
	if got, want := s.Density, 5.0/9.0; got != want {
		t.Fatalf("Density = %v, want %v", got, want)
	}
	// Adjacent Jaccards: (t0,t1)=1, (t1,t2)=0 → clustering 0.5.
	if got := s.Clustering; got != 0.5 {
		t.Fatalf("Clustering = %v, want 0.5", got)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(New(nil))
	if s != (Stats{}) {
		t.Fatalf("stats of empty DB should be zero: %+v", s)
	}
}

func TestJaccardSorted(t *testing.T) {
	cases := []struct {
		a, b Transaction
		want float64
	}{
		{tx(), tx(), 1},
		{tx(1), tx(), 0},
		{tx(1, 2), tx(1, 2), 1},
		{tx(1, 2), tx(2, 3), 1.0 / 3.0},
		{tx(1), tx(2), 0},
	}
	for _, c := range cases {
		if got := jaccardSorted(c.a, c.b); got != c.want {
			t.Errorf("jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	tr := tx(1, 3, 5)
	for _, it := range []Item{1, 3, 5} {
		if !Contains(tr, it) {
			t.Errorf("Contains(%v, %d) = false", tr, it)
		}
	}
	for _, it := range []Item{0, 2, 6} {
		if Contains(tr, it) {
			t.Errorf("Contains(%v, %d) = true", tr, it)
		}
	}
}

func TestContainsAll(t *testing.T) {
	tr := tx(1, 3, 5, 8)
	cases := []struct {
		set  []Item
		want bool
	}{
		{nil, true},
		{[]Item{1}, true},
		{[]Item{1, 8}, true},
		{[]Item{3, 5, 8}, true},
		{[]Item{2}, false},
		{[]Item{1, 2}, false},
		{[]Item{8, 9}, false},
	}
	for _, c := range cases {
		if got := ContainsAll(tr, c.set); got != c.want {
			t.Errorf("ContainsAll(%v, %v) = %v, want %v", tr, c.set, got, c.want)
		}
	}
}

// Property: Normalize is idempotent and preserves the item set of each
// transaction.
func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 20, 10, 8)
		db.Normalize()
		before := db.Clone()
		db.Normalize()
		return txsEqual(before.Tx, db.Tx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomDB builds a small random normalized database for property tests.
func randomDB(rng *rand.Rand, n, m, maxLen int) *DB {
	tx := make([]Transaction, n)
	for i := range tx {
		l := rng.Intn(maxLen + 1)
		t := make(Transaction, 0, l)
		for j := 0; j < l; j++ {
			t = append(t, Item(rng.Intn(m)))
		}
		tx[i] = t
	}
	db := New(tx)
	if db.NumItems < m {
		db.NumItems = m
	}
	db.Normalize()
	return db
}

func TestWeight(t *testing.T) {
	db := New([]Transaction{{0, 1, 3}, {1, 3}, {0, 2, 3}, {2}})
	if got := db.Weight(); got != 9 {
		t.Fatalf("Weight = %d, want 9", got)
	}
	if New(nil).Weight() != 0 {
		t.Fatal("empty DB has nonzero weight")
	}
}
