package lexorder

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fpm/internal/dataset"
)

// referenceLayout builds the P1 layout the direct way: every row
// relabelled and sorted on its own, then the rows sorted by comparison.
// relabel's rank buckets and SortTransactions' multikey sort must
// reproduce it row for row. sortRows false keeps the input row order, as
// ApplyRelabelOnly does.
func referenceLayout(db *dataset.DB, o *Ordering, dropEmpty, sortRows bool) []dataset.Transaction {
	var rows []dataset.Transaction
	for _, t := range db.Tx {
		row := dataset.Transaction{}
		for _, it := range t {
			if r := o.Rank[it]; r >= 0 {
				row = append(row, r)
			}
		}
		if dropEmpty && len(row) == 0 {
			continue
		}
		slices.Sort(row)
		rows = append(rows, row)
	}
	if sortRows {
		slices.SortFunc(rows, slices.Compare)
	}
	return rows
}

// layoutShapes returns databases of the shapes a row sort can go wrong
// on: duplicate and empty rows, all-identical rows, rows already in P1
// order and in reverse, rows sharing long prefixes, a one-item alphabet,
// and a database large enough to partition many times.
func layoutShapes(rng *rand.Rand) map[string]*dataset.DB {
	shapes := map[string]*dataset.DB{"sparse": sparseDB(rng, 60+rng.Intn(200), 3+rng.Intn(8), 500)}

	same := make(dataset.Transaction, 1+rng.Intn(30))
	for i := range same {
		same[i] = dataset.Item(rng.Intn(50))
	}
	identical := make([]dataset.Transaction, 50+rng.Intn(300))
	for i := range identical {
		identical[i] = append(dataset.Transaction(nil), same...)
	}
	shapes["identical"] = normalized(identical, 50)

	// Apply's output, in rank space, ranks to itself: handing it back
	// gives rows already in P1 order.
	lex, _ := Apply(randomDB(rng, 100+rng.Intn(300), 20, 8))
	shapes["presorted"] = lex
	reversed := lex.Clone()
	slices.Reverse(reversed.Tx)
	shapes["reverse"] = reversed

	prefix := rng.Perm(60)[:40]
	shared := make([]dataset.Transaction, 100+rng.Intn(200))
	for i := range shared {
		t := dataset.Transaction{}
		for _, it := range prefix {
			t = append(t, dataset.Item(it))
		}
		for j := rng.Intn(4); j > 0; j-- {
			t = append(t, dataset.Item(60+rng.Intn(10)))
		}
		shared[i] = t
	}
	shapes["shared-prefix"] = normalized(shared, 70)

	one := make([]dataset.Transaction, 20+rng.Intn(100))
	for i := range one {
		if rng.Intn(3) > 0 {
			one[i] = dataset.Transaction{0}
		}
	}
	shapes["one-item"] = normalized(one, 1)

	shapes["large"] = randomDB(rng, 3000, 40, 12)
	return shapes
}

func normalized(tx []dataset.Transaction, numItems int) *dataset.DB {
	db := &dataset.DB{Tx: tx, NumItems: numItems}
	db.Normalize()
	return db
}

// TestLayoutMatchesReference checks Apply, Frequent and ApplyRelabelOnly
// against referenceLayout on randomized databases of every shape, and
// that every row is capacity-capped.
func TestLayoutMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, db := range layoutShapes(rng) {
			check := func(what string, got *dataset.DB, want []dataset.Transaction) {
				t.Helper()
				if !slices.EqualFunc(got.Tx, want, slices.Equal) {
					t.Fatalf("seed %d %s %s: rows\n%v\nwant\n%v", seed, name, what, got.Tx, want)
				}
				for i, row := range got.Tx {
					if cap(row) != len(row) {
						t.Fatalf("seed %d %s %s: row %d has capacity %d beyond its %d items", seed, name, what, i, cap(row), len(row))
					}
				}
			}
			got, o := Apply(db)
			check("Apply", got, referenceLayout(db, o, false, true))
			got, o = ApplyRelabelOnly(db)
			check("ApplyRelabelOnly", got, referenceLayout(db, o, false, false))
			maxFreq := slices.Max(append([]int{0}, o.Freq...))
			for _, s := range []int{1, 2, 5, maxFreq, maxFreq + 1} {
				got, o := Frequent(db, s)
				check(fmt.Sprintf("Frequent(%d)", s), got, referenceLayout(db, o, true, true))
			}
		}
	}
}

// TestSortTransactionsMatchesComparisonSort checks the multikey sort
// against a comparison sort on every shape. It also starts the sort at the
// depth of the rows' common prefix, and with its split budget short or
// exhausted, so the fallback runs at depth zero and beyond.
func TestSortTransactionsMatchesComparisonSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, db := range layoutShapes(rng) {
			want := slices.Clone(db.Tx)
			slices.SortFunc(want, slices.Compare)
			common := len(want[0])
			for _, row := range want[1:] {
				common = min(common, len(row))
				for common > 0 && !slices.Equal(row[:common], want[0][:common]) {
					common--
				}
			}
			for _, d := range []int{0, common} {
				for _, budget := range []int{badSplits(len(db.Tx)), 1, 0} {
					got := slices.Clone(db.Tx)
					multikey(got, d, budget)
					if !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("seed %d %s depth %d budget %d: rows\n%v\nwant\n%v", seed, name, d, budget, got, want)
					}
				}
			}
		}
	}
}
