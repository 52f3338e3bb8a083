package lexorder

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
)

// paperDB is the database of the paper's Table 1 with items mapped
// a=0 b=1 c=2 d=3 e=4 f=5.
func paperDB() *dataset.DB {
	db := dataset.New([]dataset.Transaction{
		{0, 2, 5},          // {a,c,f}
		{1, 2, 5},          // {b,c,f}
		{0, 2, 5},          // {a,c,f}
		{3, 4},             // {d,e}
		{0, 1, 2, 3, 4, 5}, // {a,b,c,d,e,f}
	})
	db.Normalize()
	return db
}

// TestPaperTable1 reproduces the paper's Table 1 transformation exactly:
// the frequency alphabet is c,f,a,b,d,e and the reordered database is
// {c,f,a}, {c,f,a}, {c,f,a,b,d,e}, {c,f,b}, {d,e}.
func TestPaperTable1(t *testing.T) {
	lex, o := Apply(paperDB())

	// Frequencies: a=3 b=2 c=4 d=2 e=2 f=4. Decreasing order with ties by
	// item id: c,f,a,b,d,e → origs [2 5 0 1 3 4].
	wantOrig := []dataset.Item{2, 5, 0, 1, 3, 4}
	if !reflect.DeepEqual(o.Orig, wantOrig) {
		t.Fatalf("alphabet = %v, want %v (c,f,a,b,d,e)", o.Orig, wantOrig)
	}

	// In rank space: c=0 f=1 a=2 b=3 d=4 e=5.
	want := []dataset.Transaction{
		{0, 1, 2},          // {c,f,a}
		{0, 1, 2},          // {c,f,a}
		{0, 1, 2, 3, 4, 5}, // {c,f,a,b,d,e}
		{0, 1, 3},          // {c,f,b}
		{4, 5},             // {d,e}
	}
	if !reflect.DeepEqual(lex.Tx, want) {
		t.Fatalf("lex layout = %v, want %v", lex.Tx, want)
	}
}

func TestAnalyzeRankInverse(t *testing.T) {
	o := Analyze(paperDB())
	for item, rank := range o.Rank {
		if o.Orig[rank] != dataset.Item(item) {
			t.Fatalf("Rank/Orig not inverse at item %d", item)
		}
	}
}

func TestRestore(t *testing.T) {
	_, o := Apply(paperDB())
	// Rank set {0,1} is {c,f} = original items {2,5}.
	got := o.Restore(nil, []dataset.Item{0, 1})
	if !reflect.DeepEqual(got, []dataset.Item{2, 5}) {
		t.Fatalf("Restore = %v, want [2 5]", got)
	}
	// Restore appends after dst's contents and sorts only what it appends.
	got = o.Restore([]dataset.Item{9}, []dataset.Item{1, 0})
	if !reflect.DeepEqual(got, []dataset.Item{9, 2, 5}) {
		t.Fatalf("Restore after [9] = %v, want [9 2 5]", got)
	}
}

func TestLess(t *testing.T) {
	cases := []struct {
		a, b dataset.Transaction
		want bool
	}{
		{dataset.Transaction{}, dataset.Transaction{0}, true},
		{dataset.Transaction{0}, dataset.Transaction{}, false},
		{dataset.Transaction{0, 1}, dataset.Transaction{0, 2}, true},
		{dataset.Transaction{0, 1}, dataset.Transaction{0, 1}, false},
		{dataset.Transaction{0, 1}, dataset.Transaction{0, 1, 2}, true},
		{dataset.Transaction{1}, dataset.Transaction{0, 5}, false},
	}
	for _, c := range cases {
		if got := Less(c.a, c.b); got != c.want {
			t.Errorf("Less(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDiscontinuities(t *testing.T) {
	// Item 0 appears in tx 0 and 2 (gap → 1 discontinuity); item 1 in
	// tx 0,1,2 (contiguous → 0).
	db := dataset.New([]dataset.Transaction{{0, 1}, {1}, {0, 1}})
	if got := Discontinuities(db); got != 1 {
		t.Fatalf("Discontinuities = %d, want 1", got)
	}
	if got := Discontinuities(dataset.New(nil)); got != 0 {
		t.Fatalf("Discontinuities(empty) = %d, want 0", got)
	}
}

// Property: lexicographic ordering never increases the discontinuity count
// versus a randomly shuffled layout of the same database, and the most
// frequent item's transactions are contiguous (0 discontinuities for
// rank 0). This is the paper's §3.2 locality claim.
func TestLexImprovesLocalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 40, 10, 6)
		lex, _ := Apply(db)
		shuf, _ := ApplyRelabelOnly(db)
		rng.Shuffle(len(shuf.Tx), func(i, j int) { shuf.Tx[i], shuf.Tx[j] = shuf.Tx[j], shuf.Tx[i] })
		if Discontinuities(lex) > Discontinuities(shuf) {
			return false
		}
		// Rank-0 transactions are a contiguous prefix run.
		seen0, gap := false, false
		for _, tr := range lex.Tx {
			has0 := len(tr) > 0 && tr[0] == 0
			if has0 && gap {
				return false
			}
			if seen0 && !has0 {
				gap = true
			}
			seen0 = seen0 || has0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Apply is a support-preserving bijection — the multiset of
// transactions (as item sets, translated back) is unchanged, and item
// frequencies are permuted consistently.
func TestApplyPreservesDatabaseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 25, 8, 5)
		lex, o := Apply(db)
		if lex.Len() != db.Len() {
			return false
		}
		// Translate every lex transaction back and compare sorted multisets.
		back := make([]string, lex.Len())
		orig := make([]string, db.Len())
		for i, tr := range lex.Tx {
			back[i] = key(o.Restore(nil, tr))
		}
		for i, tr := range db.Tx {
			s := append(dataset.Transaction(nil), tr...)
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			orig[i] = key(s)
		}
		sort.Strings(back)
		sort.Strings(orig)
		return reflect.DeepEqual(back, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are ordered by decreasing frequency.
func TestRankMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 30, 12, 6)
		o := Analyze(db)
		for r := 1; r < len(o.Orig); r++ {
			if o.Freq[o.Orig[r-1]] < o.Freq[o.Orig[r]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSortTransactionsSortedOutput(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{2}, {0, 1}, {0}, {}})
	SortTransactions(db)
	for i := 1; i < len(db.Tx); i++ {
		if Less(db.Tx[i], db.Tx[i-1]) {
			t.Fatalf("not sorted at %d: %v", i, db.Tx)
		}
	}
}

func key(t dataset.Transaction) string {
	b := make([]byte, 0, len(t)*2)
	for _, it := range t {
		b = append(b, byte(it), ',')
	}
	return string(b)
}

func randomDB(rng *rand.Rand, n, m, maxLen int) *dataset.DB {
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		l := rng.Intn(maxLen + 1)
		t := make(dataset.Transaction, 0, l)
		for j := 0; j < l; j++ {
			t = append(t, dataset.Item(rng.Intn(m)))
		}
		tx[i] = t
	}
	db := dataset.New(tx)
	if db.NumItems < m {
		db.NumItems = m
	}
	db.Normalize()
	return db
}

// TestFrequentMatchesApply checks that Frequent is Apply restricted to the
// frequent ranks: the same ranks for the frequent items, and the same rows
// once the infrequent ranks are cut off, the rows left empty are dropped
// and the rest are sorted again (cutting a row's tail can move it ahead of
// rows that preceded it). The databases carry duplicate and empty
// transactions and alphabets 10 to 1000 times their frequent set; s = 1
// keeps every occurring item and a support above every frequency keeps
// none.
func TestFrequentMatchesApply(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		core := 3 + rng.Intn(8)
		vocab := core * []int{10, 100, 1000}[seed%3]
		db := sparseDB(rng, 60+rng.Intn(60), core, vocab)
		lex, full := Apply(db)
		maxFreq := slices.Max(full.Freq)
		for _, s := range []int{1, 2, 3, 5, maxFreq, maxFreq + 1} {
			got, o := Frequent(db, s)
			k := 0
			for k < len(full.Orig) && full.Freq[full.Orig[k]] >= s {
				k++
			}
			if got.NumItems != k || !slices.Equal(o.Orig, full.Orig[:k]) {
				t.Fatalf("seed %d s %d: frequent alphabet %v (NumItems %d), want %v",
					seed, s, o.Orig, got.NumItems, full.Orig[:k])
			}
			for it, r := range o.Rank {
				if want := full.Rank[it]; int(want) >= k && r != -1 || int(want) < k && r != want {
					t.Fatalf("seed %d s %d: item %d has rank %d, Apply ranks it %d of %d frequent",
						seed, s, it, r, want, k)
				}
			}
			var want []dataset.Transaction
			for _, row := range lex.Tx {
				n := 0
				for n < len(row) && int(row[n]) < k {
					n++
				}
				if n > 0 {
					want = append(want, row[:n])
				}
			}
			slices.SortFunc(want, slices.Compare)
			if !slices.EqualFunc(got.Tx, want, slices.Equal) {
				t.Fatalf("seed %d s %d: rows\n%v\nwant\n%v", seed, s, got.Tx, want)
			}
		}
	}
}

// sparseDB draws n transactions whose items come mostly from the first
// core items, with a sparse tail over the rest of a vocab-item alphabet;
// some transactions are empty and some are copies of earlier ones.
func sparseDB(rng *rand.Rand, n, core, vocab int) *dataset.DB {
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		switch {
		case i > 0 && rng.Intn(5) == 0:
			tx[i] = append(dataset.Transaction(nil), tx[rng.Intn(i)]...)
			continue
		case rng.Intn(10) == 0:
			tx[i] = dataset.Transaction{}
			continue
		}
		for j := rng.Intn(6); j >= 0; j-- {
			tx[i] = append(tx[i], dataset.Item(rng.Intn(core)))
		}
		for j := rng.Intn(3); j > 0; j-- {
			tx[i] = append(tx[i], dataset.Item(core+rng.Intn(vocab-core)))
		}
	}
	db := &dataset.DB{Tx: tx, NumItems: vocab}
	db.Normalize()
	return db
}
