// Package apriori implements the classic breadth-first Apriori algorithm
// (Agrawal & Srikant, VLDB'94). The paper excludes breadth-first search
// from its tuning study "because the depth-first search algorithms are
// generally considered to be more efficient", but cites it as the baseline
// algorithm family; it is provided here so that claim is checkable (see the
// BenchmarkAprioriVsDepthFirst ablation) and as a reference miner with a
// completely different enumeration strategy for cross-validation.
package apriori

import (
	"slices"

	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/metrics"
	"fpm/internal/mine"
)

// Options configures the miner.
type Options struct {
	// Metrics, when non-nil, receives the itemsets emitted. Apriori
	// records no other counter.
	Metrics *metrics.Recorder
	// Cancel, when non-nil, is polled once per level and every pollWork
	// candidate tests of a counting scan: once it trips, Mine returns
	// Cancel.Err().
	Cancel *cancel.Flag
}

// Miner is a level-wise Apriori frequent itemset miner.
type Miner struct{ opts Options }

// New returns an Apriori miner.
func New(opts Options) *Miner { return &Miner{opts: opts} }

// Name implements mine.Miner.
func (*Miner) Name() string { return "apriori" }

// pollWork is how many candidate tests a counting scan runs between
// cancellation polls, about a millisecond. A scan covers a varying number
// of transactions in that time: one transaction is tested against every
// candidate of the level, tens of thousands of them on a Zipf corpus at
// level 2.
const pollWork = 1 << 16

// Mine implements mine.Miner: generate candidates level by level, prune by
// the downward-closure property, and count supports with one database scan
// per level.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return m.MineSplit(db, minSupport, c, nil)
}

// MineSplit implements mine.Splitter. Apriori is level-wise, so it has no
// subtree to offer: it never calls sp.Offer and runs as one task, polling
// sp.Cancelled() where it polls its own flag.
func (m *Miner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}
	cf := m.opts.Cancel
	aborted := func() bool { return cf.Cancelled() || (sp != nil && sp.Cancelled()) }
	met := m.opts.Metrics.NewLocal()
	defer m.opts.Metrics.Flush(met)
	emit := func(items []dataset.Item, support int) {
		met.Emit()
		c.Collect(items, support)
	}

	// Level 1: frequent items.
	freq := db.Frequencies()
	var level [][]dataset.Item
	for it := dataset.Item(0); int(it) < db.NumItems; it++ {
		if freq[it] >= minSupport {
			emit([]dataset.Item{it}, freq[it])
			level = append(level, []dataset.Item{it})
		}
	}

	for k := 2; len(level) > 0; k++ {
		if aborted() {
			return cf.Err()
		}
		cands := generateCandidates(level)
		if len(cands) == 0 {
			return nil
		}
		counts := make([]int, len(cands))
		work := 0
		for _, t := range db.Tx {
			if work += len(cands); work >= pollWork {
				if aborted() {
					return cf.Err()
				}
				work = 0
			}
			if len(t) < k {
				continue
			}
			for ci, cand := range cands {
				if dataset.ContainsAll(t, cand) {
					counts[ci]++
				}
			}
		}
		var next [][]dataset.Item
		for ci, cand := range cands {
			if counts[ci] >= minSupport {
				emit(cand, counts[ci])
				next = append(next, cand)
			}
		}
		level = next
	}
	return nil
}

// generateCandidates joins frequent (k-1)-itemsets sharing a (k-2)-prefix
// and prunes candidates with an infrequent (k-1)-subset — the classic
// apriori-gen.
func generateCandidates(level [][]dataset.Item) [][]dataset.Item {
	// The level is produced in lexicographic order (maintained
	// inductively; its sets share one length, so slices.Compare is that
	// order). The join pairs sets with equal (k-2)-prefixes, and the prune
	// step finds subsets by binary search in the same order.
	slices.SortFunc(level, slices.Compare)

	var out [][]dataset.Item
	k1 := len(level[0])
	sub := make([]dataset.Item, 0, k1)
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			if !samePrefix(level[i], level[j], k1-1) {
				break
			}
			cand := make([]dataset.Item, k1+1)
			copy(cand, level[i])
			cand[k1] = level[j][k1-1]
			if !pruned(cand, level, sub) {
				out = append(out, cand)
			}
		}
	}
	return out
}

// pruned reports whether any (k-1)-subset of cand is missing from the
// previous level, which must be sorted by slices.Compare. sub is scratch
// space of capacity len(cand)-1.
func pruned(cand []dataset.Item, level [][]dataset.Item, sub []dataset.Item) bool {
	// Dropping either of the last two items gives a joined parent, which
	// is in the level by construction.
	for drop := 0; drop < len(cand)-2; drop++ {
		sub = append(append(sub[:0], cand[:drop]...), cand[drop+1:]...)
		if _, ok := slices.BinarySearchFunc(level, sub, slices.Compare); !ok {
			return true
		}
	}
	return false
}

func samePrefix(a, b []dataset.Item, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
