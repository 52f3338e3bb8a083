// Package mine defines the shared mining API: the pattern-flag vocabulary
// of the paper's Table 2/Table 4, result collectors, a brute-force
// reference miner, and canonical result sets used to cross-check every
// kernel variant against every other.
package mine

import (
	"fmt"
	"strings"

	"fpm/internal/dataset"
)

// Pattern is a bit flag identifying one ALSO tuning pattern (paper §3).
type Pattern uint16

const (
	// Lex is P1, lexicographic ordering of the initial database.
	Lex Pattern = 1 << iota
	// Adapt is P2, data structure adaptation (e.g. differential item-ID
	// encoding in FP-tree nodes).
	Adapt
	// Aggregate is P3, aggregation of linked nodes into cache-line-sized
	// supernodes.
	Aggregate
	// Compact is P4, compaction of scattered hot data (e.g. LCM frequency
	// counters) into contiguous memory.
	Compact
	// PrefetchPtr is P5, precomputed prefetch pointers.
	PrefetchPtr
	// Tile is P6/P6.1, tiling (sparse-representation tiling for LCM).
	Tile
	// Prefetch is P7/P7.1, software (wave-front) prefetching.
	Prefetch
	// SIMD is P8, SIMDization (word-parallel AND + computational popcount
	// in this reproduction).
	SIMD
)

// PatternSet is a combination of patterns applied together.
type PatternSet uint16

// Has reports whether the set contains p.
func (s PatternSet) Has(p Pattern) bool { return uint16(s)&uint16(p) != 0 }

// With returns the set extended with p.
func (s PatternSet) With(p Pattern) PatternSet { return s | PatternSet(p) }

// Without returns the set with p removed.
func (s PatternSet) Without(p Pattern) PatternSet { return s &^ PatternSet(p) }

var patternNames = []struct {
	p    Pattern
	name string
}{
	{Lex, "Lex"},
	{Adapt, "Adapt"},
	{Aggregate, "Aggregate"},
	{Compact, "Compact"},
	{PrefetchPtr, "PrefetchPtr"},
	{Tile, "Tile"},
	{Prefetch, "Prefetch"},
	{SIMD, "SIMD"},
}

// String renders the set as "Lex+Tile" etc.; the empty set is "baseline".
func (s PatternSet) String() string {
	if s == 0 {
		return "baseline"
	}
	var parts []string
	for _, pn := range patternNames {
		if s.Has(pn.p) {
			parts = append(parts, pn.name)
		}
	}
	return strings.Join(parts, "+")
}

// Patterns lists the individual patterns in the set.
func (s PatternSet) Patterns() []Pattern {
	var out []Pattern
	for _, pn := range patternNames {
		if s.Has(pn.p) {
			out = append(out, pn.p)
		}
	}
	return out
}

// ParsePatterns resolves a comma-separated, case-insensitive list of
// pattern names ("lex,simd", "Lex, Tile") to a PatternSet. The empty
// string is the empty set and "all" is every pattern applicable to algo.
func ParsePatterns(s string, algo Algorithm) (PatternSet, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	if strings.EqualFold(s, "all") {
		return Applicable(algo), nil
	}
	var ps PatternSet
next:
	for _, name := range strings.Split(s, ",") {
		for _, pn := range patternNames {
			if strings.EqualFold(strings.TrimSpace(name), pn.name) {
				ps = ps.With(pn.p)
				continue next
			}
		}
		return 0, fmt.Errorf("unknown pattern %q", name)
	}
	return ps, nil
}

// Algorithm identifies one of the mining kernels under study.
type Algorithm string

// The three kernels the paper tunes (Table 3) and the Apriori baseline it
// cites as the classic breadth-first alternative.
const (
	LCM      Algorithm = "lcm"
	Eclat    Algorithm = "eclat"
	FPGrowth Algorithm = "fpgrowth"
	Apriori  Algorithm = "apriori"
)

// Applicable returns the set of patterns the paper applies to each kernel
// (the "√" cells of Table 4).
func Applicable(a Algorithm) PatternSet {
	switch a {
	case LCM:
		return PatternSet(Lex | Aggregate | Compact | Tile | Prefetch)
	case Eclat:
		return PatternSet(Lex | SIMD)
	case FPGrowth:
		return PatternSet(Lex | Adapt | Aggregate | Compact | PrefetchPtr | Prefetch)
	default:
		return 0
	}
}

// Collector receives mined frequent itemsets. The items of every itemset
// arrive strictly ascending in the database's original item ids: each
// kernel owns that order (a relabelling kernel maps its itemsets back
// before emitting them), and no collector, scheduler or merge repairs
// it. Implementations must copy the items slice if they retain it;
// miners reuse the buffer.
type Collector interface {
	Collect(items []dataset.Item, support int)
}

// CountCollector counts itemsets and sums supports without storing them.
type CountCollector struct {
	N            int // number of frequent itemsets
	TotalSupport int // sum of supports (a cheap checksum)
}

// Collect implements Collector.
func (c *CountCollector) Collect(items []dataset.Item, support int) {
	c.N++
	c.TotalSupport += support
}

// Itemset is a mined frequent itemset with its support.
type Itemset struct {
	Items   []dataset.Item
	Support int
}

// SliceCollector stores every mined itemset.
type SliceCollector struct {
	Sets []Itemset
	// arena is the chunk the stored itemsets' items are copied into. Each
	// Items is capped at its own length, so appending to one reallocates
	// instead of overwriting its neighbour.
	arena []dataset.Item
}

// collectChunk is the number of items per SliceCollector arena chunk.
const collectChunk = 4096

// Collect implements Collector.
func (c *SliceCollector) Collect(items []dataset.Item, support int) {
	if len(c.arena)+len(items) > cap(c.arena) {
		c.arena = make([]dataset.Item, 0, max(collectChunk, len(items)))
	}
	start := len(c.arena)
	c.arena = append(c.arena, items...)
	c.Sets = append(c.Sets, Itemset{Items: c.arena[start:len(c.arena):len(c.arena)], Support: support})
}

// Key joins an itemset's items with commas in the order given, without
// sorting: every kernel emits its items ascending (see Collector), so two
// listings compared by Key differ if either breaks that contract.
func Key(items []dataset.Item) string {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	return b.String()
}

// ResultSet maps each itemset's Key to its support, used to compare miner
// outputs irrespective of the order itemsets are emitted in; the order of
// items within an itemset is part of its key.
type ResultSet map[string]int

// Collect implements Collector.
func (r ResultSet) Collect(items []dataset.Item, support int) {
	r[Key(items)] = support
}

// Equal reports whether two result sets contain exactly the same itemsets
// with the same supports.
func (r ResultSet) Equal(o ResultSet) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Diff returns a human-readable summary of up to max differences between
// two result sets, for test failure messages.
func (r ResultSet) Diff(o ResultSet, max int) string {
	var b strings.Builder
	n := 0
	for k, v := range r {
		if ov, ok := o[k]; !ok {
			fmt.Fprintf(&b, "only in left: {%s}=%d\n", k, v)
			n++
		} else if ov != v {
			fmt.Fprintf(&b, "support mismatch {%s}: %d vs %d\n", k, v, ov)
			n++
		}
		if n >= max {
			return b.String()
		}
	}
	for k, v := range o {
		if _, ok := r[k]; !ok {
			fmt.Fprintf(&b, "only in right: {%s}=%d\n", k, v)
			n++
		}
		if n >= max {
			break
		}
	}
	return b.String()
}

// Miner is the common interface implemented by every kernel. Mine
// enumerates all itemsets with support >= minSupport (minSupport >= 1) and
// reports them to c. The empty itemset is never reported. Implementations
// must not retain or mutate db.
type Miner interface {
	Mine(db *dataset.DB, minSupport int, c Collector) error
	Name() string
}

// ErrBadSupport is returned by miners when minSupport < 1.
type ErrBadSupport int

func (e ErrBadSupport) Error() string {
	return fmt.Sprintf("mine: minSupport must be >= 1, got %d", int(e))
}
