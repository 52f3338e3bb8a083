// Package lexorder implements tuning pattern P1, lexicographic ordering
// (paper §3.2): relabel items in decreasing frequency order, sort the items
// of each transaction by that order, and sort the transactions
// lexicographically over the frequency-ordered alphabet.
//
// The transformation moves transactions that share frequent prefixes to
// consecutive memory locations, improving spatial locality for the
// projected-database construction walk common to all depth-first miners; it
// clusters the 1s of the most frequent items at the start of Eclat's bit
// vectors (enabling 0-escaping); and it makes consecutive FP-tree
// insertions share cached paths.
//
// Apply builds the layout of paper Table 1 over the whole alphabet; the
// simulator and the public LexOrder use it. Frequent builds the same
// layout restricted to the items a miner can use, which is what the
// native kernels mine.
package lexorder

import (
	"cmp"
	"slices"

	"fpm/internal/dataset"
)

// Ordering describes the item relabeling produced by Analyze, Apply or
// Frequent. Rank 0 is the most frequent item.
type Ordering struct {
	// Rank maps original item → frequency rank (0 = most frequent). Ties
	// are broken by original item id so the ordering is deterministic.
	// Items that Frequent drops map to -1.
	Rank []dataset.Item
	// Orig maps frequency rank → original item (the inverse of Rank).
	Orig []dataset.Item
	// Freq holds the support of each original item.
	Freq []int
}

// Analyze computes the decreasing-frequency ordering of the database's
// alphabet.
func Analyze(db *dataset.DB) *Ordering {
	return rank(db.Frequencies(), 0)
}

// rank orders the items whose frequency is at least minSupport by
// decreasing frequency, then increasing id. The comparator is a total
// order, so the unstable sort is deterministic.
func rank(freq []int, minSupport int) *Ordering {
	n := 0
	for _, f := range freq {
		if f >= minSupport {
			n++
		}
	}
	o := &Ordering{Freq: freq, Orig: make([]dataset.Item, 0, n), Rank: make([]dataset.Item, len(freq))}
	for it, f := range freq {
		if f >= minSupport {
			o.Orig = append(o.Orig, dataset.Item(it))
		}
		o.Rank[it] = -1
	}
	slices.SortFunc(o.Orig, func(a, b dataset.Item) int {
		if c := cmp.Compare(freq[b], freq[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, it := range o.Orig {
		o.Rank[it] = dataset.Item(r)
	}
	return o
}

// Apply returns a new database in the lexicographic layout:
//
//  1. every item is relabeled by its frequency rank,
//  2. items inside each transaction are sorted by increasing rank
//     (i.e. decreasing original frequency, as in paper Table 1), and
//  3. transactions are sorted lexicographically over the rank alphabet.
//
// The returned ordering lets callers translate mined itemsets back to the
// original alphabet. The input database is not modified. The output keeps
// every transaction, empty ones included, and the whole alphabet.
func Apply(db *dataset.DB) (*dataset.DB, *Ordering) {
	o := Analyze(db)
	out := relabel(db, o, false)
	SortTransactions(out)
	return out, o
}

// Frequent is Apply restricted to the items with support at least
// minSupport: only they are ranked, every other item is dropped from the
// rows, rows left empty are dropped, and NumItems is the number of
// frequent items. No itemset the miner can report is lost. Beyond the
// alphabet-sized frequency count and rank table, the cost scales with the
// frequent items and the rows, not with the alphabet, which is what a
// kernel handed one small chunk of a large vocabulary needs.
func Frequent(db *dataset.DB, minSupport int) (*dataset.DB, *Ordering) {
	o := rank(db.Frequencies(), minSupport)
	out := relabel(db, o, true)
	SortTransactions(out)
	return out, o
}

// ApplyRelabelOnly relabels items by rank and sorts within transactions but
// keeps the original transaction order. Used to isolate the contribution of
// the transaction permutation from the item relabeling in ablations.
func ApplyRelabelOnly(db *dataset.DB) (*dataset.DB, *Ordering) {
	o := Analyze(db)
	return relabel(db, o, false), o
}

// relabel rewrites every row of db in rank space, keeping only the items o
// ranks, with each row sorted by rank. The rows are cut from one arena of
// exactly the kept occurrences, capacity-capped so no row can grow into
// its neighbour. dropEmpty leaves out the rows that keep no item.
func relabel(db *dataset.DB, o *Ordering, dropEmpty bool) *dataset.DB {
	total := 0
	for _, it := range o.Orig {
		total += o.Freq[it]
	}
	arena := make([]dataset.Item, 0, total)
	out := &dataset.DB{Tx: make([]dataset.Transaction, 0, len(db.Tx)), NumItems: len(o.Orig)}
	for _, t := range db.Tx {
		start := len(arena)
		for _, it := range t {
			if r := o.Rank[it]; r >= 0 {
				arena = append(arena, r)
			}
		}
		if dropEmpty && len(arena) == start {
			continue
		}
		row := arena[start:len(arena):len(arena)]
		slices.Sort(row)
		out.Tx = append(out.Tx, row)
	}
	return out
}

// SortTransactions sorts db.Tx lexicographically in place. Transactions are
// compared element-wise; a proper prefix sorts before its extensions.
// Transactions that compare equal have equal contents, so the unstable
// sort yields the same layout as a stable one.
func SortTransactions(db *dataset.DB) {
	slices.SortFunc(db.Tx, slices.Compare)
}

// Less reports whether transaction a precedes b lexicographically.
func Less(a, b dataset.Transaction) bool {
	return slices.Compare(a, b) < 0
}

// Restore maps a mined itemset expressed in rank space back to the original
// item alphabet, appends it in increasing order to dst and returns the
// extended slice. Miners pass their emission buffer truncated to length
// zero, so restoring allocates only when the buffer grows.
func (o *Ordering) Restore(dst, set []dataset.Item) []dataset.Item {
	n := len(dst)
	for _, r := range set {
		dst = append(dst, o.Orig[r])
	}
	slices.Sort(dst[n:])
	return dst
}

// Discontinuities counts, summed over all items, the number of maximal runs
// of consecutive transactions containing that item, minus one per occurring
// item. It is the locality metric the paper argues P1 minimizes ("the
// lexicographic layout … will tend to reduce the total number of
// discontinuities, and especially reduce discontinuities for frequent
// items"). Lower is better; 0 means every item's transactions are
// contiguous.
func Discontinuities(db *dataset.DB) int {
	last := make([]int, db.NumItems) // last transaction index containing item
	for i := range last {
		last[i] = -2 // "never seen": cannot equal ti-1 for any ti >= 0
	}
	total := 0
	for ti, t := range db.Tx {
		for _, it := range t {
			// A new run starts when the item was seen before but not in
			// the immediately preceding transaction. The first run of each
			// item is free, so the total is Σ(runs(item) - 1).
			if last[it] >= 0 && last[it] != ti-1 {
				total++
			}
			last[it] = ti
		}
	}
	return total
}
