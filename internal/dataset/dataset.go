// Package dataset defines the in-memory transactional database model used
// by every mining kernel in this repository, together with the statistics
// that drive pattern selection.
//
// A database is a multiset of transactions; each transaction is a set of
// items drawn from a dense integer alphabet [0, NumItems). The paper (§2.1)
// views the database as an m×n boolean table A with A[i][j] = 1 iff
// transaction i contains item j; the representations in this package and in
// internal/bitvec realise the horizontal-sparse, vertical-dense and
// prefix-tree encodings of that table (paper Figure 3).
package dataset

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Item identifies a single item. Items are dense small integers so kernels
// can index frequency arrays directly. int32 halves the footprint of the
// horizontal representation relative to int, which matters for the
// cache-locality experiments.
type Item = int32

// Transaction is one row of the database: a duplicate-free, usually sorted
// set of items. The significance of item order inside a transaction is
// representation-specific; see Normalize and lexorder.Apply.
type Transaction []Item

// DB is a transactional database. The zero value is an empty database over
// an empty alphabet and is ready to use.
type DB struct {
	// Tx holds the transactions. Transaction order is not semantically
	// significant (mining results are order-independent) which is exactly
	// the freedom pattern P1 (lexicographic ordering) exploits.
	Tx []Transaction
	// NumItems is the size of the item alphabet; all items are in
	// [0, NumItems).
	NumItems int
}

// New constructs a database from raw transactions, computing the alphabet
// size from the largest item present.
func New(tx []Transaction) *DB {
	db := &DB{Tx: tx}
	for _, t := range tx {
		for _, it := range t {
			if int(it) >= db.NumItems {
				db.NumItems = int(it) + 1
			}
		}
	}
	return db
}

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.Tx) }

// Clone returns a deep copy of the database. Kernels that mutate layout
// (lexicographic ordering, projection) clone first so callers keep their
// input intact.
func (db *DB) Clone() *DB {
	out := &DB{Tx: make([]Transaction, len(db.Tx)), NumItems: db.NumItems}
	for i, t := range db.Tx {
		out.Tx[i] = append(Transaction(nil), t...)
	}
	return out
}

// Validate checks structural invariants: all items in range, and no
// duplicate items within a transaction. It does not require sortedness.
func (db *DB) Validate() error {
	seen := make(map[Item]struct{}, 64)
	for i, t := range db.Tx {
		clear(seen)
		for _, it := range t {
			if it < 0 || int(it) >= db.NumItems {
				return fmt.Errorf("dataset: transaction %d: item %d out of range [0,%d)", i, it, db.NumItems)
			}
			if _, dup := seen[it]; dup {
				return fmt.Errorf("dataset: transaction %d: duplicate item %d", i, it)
			}
			seen[it] = struct{}{}
		}
	}
	return nil
}

// Normalize sorts the items of every transaction in increasing item order
// and removes duplicates in place. Most kernels require normalized input;
// generators and readers call this before returning a database. It never
// allocates (slices.Sort, unlike a sort.Slice closure, needs no escape of
// the transaction) — the streaming reader's zero-allocation chunk path
// depends on that. A row that is already strictly ascending, as every row
// fimi.Write produces is, is left as it is.
//
// Normalize returns one past the largest item of the normalized rows (0
// when there is none), read from each row's last item: readers that
// build a database take NumItems from it instead of scanning every item
// as New does. NumItems itself is left unchanged.
func (db *DB) Normalize() int {
	n := 0
	for i, t := range db.Tx {
		if !strictlyAscending(t) {
			slices.Sort(t)
			t = dedupSorted(t)
			db.Tx[i] = t
		}
		if len(t) > 0 {
			n = max(n, int(t[len(t)-1])+1)
		}
	}
	return n
}

// strictlyAscending reports whether t is sorted with no repeated item.
func strictlyAscending(t Transaction) bool {
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return false
		}
	}
	return true
}

func dedupSorted(t Transaction) Transaction {
	if len(t) < 2 {
		return t
	}
	w := 1
	for r := 1; r < len(t); r++ {
		if t[r] != t[w-1] {
			t[w] = t[r]
			w++
		}
	}
	return t[:w]
}

// Frequencies returns, for each item, the number of transactions containing
// it (the item's support).
func (db *DB) Frequencies() []int {
	f := make([]int, db.NumItems)
	for _, t := range db.Tx {
		for _, it := range t {
			f[it]++
		}
	}
	return f
}

// ErrEmptyAlphabet is returned by operations that need at least one item.
var ErrEmptyAlphabet = errors.New("dataset: empty item alphabet")

// Weight returns the total number of item occurrences — the count of ones
// in the paper's m×n boolean matrix. Task-parallel schedulers use it as
// the work estimate for a whole database.
func (db *DB) Weight() int {
	w := 0
	for _, t := range db.Tx {
		w += len(t)
	}
	return w
}

// Stats summarises input characteristics. These are the observable features
// the paper's §4.4 ties pattern profitability to (transaction length ↔
// prefetch/aggregation; clustering ↔ tiling; input order randomness ↔ lex
// ordering) and the features internal/tune uses to select patterns.
type Stats struct {
	Transactions int     // number of transactions
	Items        int     // alphabet size
	AvgLen       float64 // mean transaction length
	MaxLen       int     // longest transaction
	Density      float64 // fraction of ones in the boolean matrix
	// Clustering measures how well consecutive transactions share items:
	// the mean Jaccard similarity of adjacent transaction pairs. High
	// values mean a tile of transactions enjoys cache reuse (tiling
	// profitable); low values mean lexicographic reordering has the most
	// room to improve locality.
	Clustering float64
}

// ComputeStats scans the database once and returns its Stats.
func ComputeStats(db *DB) Stats {
	s := Stats{Transactions: len(db.Tx), Items: db.NumItems}
	totalItems := 0
	for _, t := range db.Tx {
		totalItems += len(t)
		if len(t) > s.MaxLen {
			s.MaxLen = len(t)
		}
	}
	if len(db.Tx) > 0 {
		s.AvgLen = float64(totalItems) / float64(len(db.Tx))
	}
	if db.NumItems > 0 && len(db.Tx) > 0 {
		s.Density = float64(totalItems) / (float64(db.NumItems) * float64(len(db.Tx)))
	}
	if len(db.Tx) > 1 {
		var sum float64
		for i := 1; i < len(db.Tx); i++ {
			sum += jaccardSorted(db.Tx[i-1], db.Tx[i])
		}
		s.Clustering = sum / float64(len(db.Tx)-1)
	}
	return s
}

// jaccardSorted computes |a∩b| / |a∪b| for two sorted transactions.
func jaccardSorted(a, b Transaction) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Contains reports whether normalized (sorted) transaction t contains item.
func Contains(t Transaction, item Item) bool {
	idx := sort.Search(len(t), func(i int) bool { return t[i] >= item })
	return idx < len(t) && t[idx] == item
}

// ContainsAll reports whether sorted transaction t subsumes the sorted
// itemset set (support test used by the brute-force reference miner).
func ContainsAll(t Transaction, set []Item) bool {
	i := 0
	for _, want := range set {
		for i < len(t) && t[i] < want {
			i++
		}
		if i >= len(t) || t[i] != want {
			return false
		}
		i++
	}
	return true
}
