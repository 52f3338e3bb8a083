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
	"math/bits"
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
//
// The rows come out sorted without a sort: the occurrences are bucketed by
// rank, and the buckets are then written into their rows in rank order, so
// the work is linear in the occurrences, the rows and the ranked items.
// o.Freq, db's occurrence counts, sizes the buckets.
func relabel(db *dataset.DB, o *Ordering, dropEmpty bool) *dataset.DB {
	// bucket[r] is where rank r's next row index goes in occ; filling the
	// buckets moves each to its bucket's end. cur[ti] counts row ti's kept
	// items.
	bucket := make([]int32, len(o.Orig))
	total := int32(0)
	for r, it := range o.Orig {
		bucket[r] = total
		total += int32(o.Freq[it])
	}
	occ := make([]int32, total)
	cur := make([]int32, len(db.Tx))
	kept := 0
	for ti, t := range db.Tx {
		for _, it := range t {
			if r := o.Rank[it]; r >= 0 {
				occ[bucket[r]] = int32(ti)
				bucket[r]++
				cur[ti]++
			}
		}
		if cur[ti] > 0 || !dropEmpty {
			kept++
		}
	}
	arena := make([]dataset.Item, total)
	out := &dataset.DB{Tx: make([]dataset.Transaction, 0, kept), NumItems: len(o.Orig)}
	// Cut the rows; cur[ti] becomes row ti's write cursor, at its start.
	off := int32(0)
	for ti, n := range cur {
		if n > 0 || !dropEmpty {
			out.Tx = append(out.Tx, arena[off:off+n:off+n])
		}
		cur[ti] = off
		off += n
	}
	start := int32(0)
	for r, end := range bucket {
		for _, ti := range occ[start:end] {
			arena[cur[ti]] = dataset.Item(r)
			cur[ti]++
		}
		start = end
	}
	return out
}

// SortTransactions sorts db.Tx lexicographically in place. Transactions are
// compared element-wise; a proper prefix sorts before its extensions.
// Transactions that compare equal have equal contents, so the unstable
// sort yields the same layout as a stable one.
//
// The sort is a multikey quicksort (Bentley and Sedgewick): it partitions
// the rows three ways on their item at one depth and moves to the next
// depth only inside the equal part, so a shared prefix is read once per
// partitioning step rather than once per comparison. Small parts finish by
// insertion sort from their depth, and a part that keeps splitting badly
// falls back to a comparison sort, so no input makes it quadratic.
func SortTransactions(db *dataset.DB) {
	multikey(db.Tx, 0, badSplits(len(db.Tx)))
}

// insertionRows is the part size below which multikey finishes by
// insertion sort.
const insertionRows = 12

// badSplits is the number of partitioning steps multikey allows a part of
// n rows at one depth before it falls back to a comparison sort: twice
// the depth of a balanced split.
func badSplits(n int) int { return 2 * bits.Len(uint(n)) }

// multikey sorts tx, whose rows all share their first d items, by their
// items from depth d on. budget bounds the partitioning steps left at
// depth d.
func multikey(tx []dataset.Transaction, d, budget int) {
	for len(tx) > insertionRows {
		if budget == 0 {
			slices.SortFunc(tx, func(a, b dataset.Transaction) int { return slices.Compare(a[d:], b[d:]) })
			return
		}
		budget--
		p := pivot(tx, d)
		// Dijkstra's three-way partition: tx[:lt] < p, tx[lt:i] == p,
		// tx[gt:] > p.
		lt, i, gt := 0, 0, len(tx)
		for i < gt {
			switch k := at(tx[i], d); {
			case k < p:
				tx[lt], tx[i] = tx[i], tx[lt]
				lt++
				i++
			case k > p:
				gt--
				tx[gt], tx[i] = tx[i], tx[gt]
			default:
				i++
			}
		}
		multikey(tx[:lt], d, budget)
		multikey(tx[gt:], d, budget)
		if p < 0 {
			return // the equal rows all end at depth d: they are equal
		}
		tx, d = tx[lt:gt], d+1
		budget = badSplits(len(tx))
	}
	for i := 1; i < len(tx); i++ {
		for j := i; j > 0 && slices.Compare(tx[j][d:], tx[j-1][d:]) < 0; j-- {
			tx[j], tx[j-1] = tx[j-1], tx[j]
		}
	}
}

// at is row t's item at depth d, or -1, below every item, past its end.
func at(t dataset.Transaction, d int) dataset.Item {
	if d < len(t) {
		return t[d]
	}
	return -1
}

// pivot is the median of the items at depth d of the first, middle and
// last rows of tx.
func pivot(tx []dataset.Transaction, d int) dataset.Item {
	a, b, c := at(tx[0], d), at(tx[len(tx)/2], d), at(tx[len(tx)-1], d)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
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
