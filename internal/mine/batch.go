package mine

import (
	"slices"

	"fpm/internal/dataset"
)

// ShardCollector is a worker-local result buffer for task-parallel mining:
// itemsets are appended into a flat item arena (one slice append per
// itemset, no per-itemset allocation) and replayed or handed over wholesale
// when the shards are merged on a single goroutine. The zero value is ready
// to use. It is not safe for concurrent use — each worker owns one.
type ShardCollector struct {
	arena []dataset.Item // all items, back to back
	ends  []int          // ends[i] = end offset of itemset i in arena
	sups  []int          // sups[i] = support of itemset i
}

// Collect implements Collector.
func (s *ShardCollector) Collect(items []dataset.Item, support int) {
	s.arena = append(s.arena, items...)
	s.ends = append(s.ends, len(s.arena))
	s.sups = append(s.sups, support)
}

// Len returns the number of buffered itemsets.
func (s *ShardCollector) Len() int { return len(s.ends) }

// TotalSupport sums the supports of the buffered itemsets.
func (s *ShardCollector) TotalSupport() int {
	t := 0
	for _, v := range s.sups {
		t += v
	}
	return t
}

// Emit replays the buffered itemsets into c in collection order. Item
// slices passed to c alias the arena, per the Collector contract.
func (s *ShardCollector) Emit(c Collector) {
	lo := 0
	for i, hi := range s.ends {
		c.Collect(s.arena[lo:hi], s.sups[i])
		lo = hi
	}
}

// Reset empties the shard, retaining capacity.
func (s *ShardCollector) Reset() {
	s.arena = s.arena[:0]
	s.ends = s.ends[:0]
	s.sups = s.sups[:0]
}

// BatchCollector is an optional Collector extension. A collector that
// implements it receives whole worker shards at merge time instead of one
// Collect call per itemset, skipping the per-itemset replay entirely.
// CollectBatch is invoked from a single goroutine, after all mining workers
// have finished — the single-goroutine guarantee of the Collector contract
// is unchanged; only the call granularity differs. The shard (and its
// arena) is owned by the caller and must not be retained.
type BatchCollector interface {
	Collector
	CollectBatch(shard *ShardCollector)
}

// CollectBatch implements BatchCollector: counting needs no replay at all.
func (c *CountCollector) CollectBatch(shard *ShardCollector) {
	c.N += shard.Len()
	c.TotalSupport += shard.TotalSupport()
}

// CollectBatch implements BatchCollector: the itemset count is known up
// front, so the Sets slice grows once per shard instead of amortised.
func (c *SliceCollector) CollectBatch(shard *ShardCollector) {
	if cap(c.Sets)-len(c.Sets) < shard.Len() {
		grown := make([]Itemset, len(c.Sets), len(c.Sets)+shard.Len())
		copy(grown, c.Sets)
		c.Sets = grown
	}
	shard.Emit(c)
}

// SortCanonical sorts a listing into the canonical itemset order: by
// size, then item by item. It is the one place that orders listings;
// the items within each itemset are already ascending (see Collector).
func SortCanonical(sets []Itemset) {
	slices.SortFunc(sets, func(a, b Itemset) int { return compareItems(a.Items, b.Items) })
}

// LessItems reports whether a precedes b in the canonical itemset order
// of SortCanonical.
func LessItems(a, b []dataset.Item) bool { return compareItems(a, b) < 0 }

func compareItems(a, b []dataset.Item) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}
