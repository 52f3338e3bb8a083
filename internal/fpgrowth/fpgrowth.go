// Package fpgrowth implements the FP-Growth kernel of paper §4.3: pattern
// growth over an FP-tree (a prefix tree augmented with per-item node-link
// chains and a header table). The dominant access pattern — and the
// memory-bound hot loop the paper targets — is following the node-links of
// an item and then walking each node's parent chain to the root to gather
// the conditional pattern base.
//
// Applicable patterns (Table 4):
//
//	P1 Lex          — insert lexicographically sorted transactions, so
//	                  consecutive insertions share cached paths and
//	                  parent/child pairs are allocated adjacently;
//	P2 Adapt        — compact index-linked arena nodes instead of
//	                  pointer-linked heap nodes (the Go analogue of the
//	                  paper's differential item-ID byte encoding: the goal,
//	                  a much smaller node, is preserved — see DESIGN.md);
//	                  one arena per recursion depth is rebuilt in place,
//	                  so trees after the first at a depth allocate only
//	                  when they outgrow it;
//	P3 Aggregate    — inline path segments: each node carries the items of
//	                  its next AggSpan-1 ancestors plus a skip pointer, so
//	                  an upward walk reads one contiguous record per
//	                  superlevel instead of chasing one pointer per level;
//	P4 Compact      — conditional pattern bases gathered into reused
//	                  contiguous buffers instead of per-path allocations;
//	P5 PrefetchPtr /
//	P7 Prefetch     — node-link read-ahead touches natively (precise
//	                  modelling lives in internal/simkern).
package fpgrowth

import (
	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/lexorder"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// Options selects the tuning patterns applied by the miner.
type Options struct {
	Patterns mine.PatternSet
	// AggSpan is the number of tree levels folded into one supernode when
	// Patterns has Aggregate. Zero means 4 (the paper compresses "four
	// consecutive tree levels into one superlevel").
	AggSpan int
	// Metrics, when non-nil, receives run-time counters: nodes expanded
	// (conditional FP-trees built), support countings (header-table
	// supports read), itemsets emitted and candidate prunes. Nil disables
	// recording at the cost of one nil-check per counter site.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives coarse kernel spans: one span per
	// first-level subtree. Only set this on miners running sequentially —
	// under the scheduler the worker task spans own the timeline. The track
	// is cached on the Miner and reused across Mine calls, so a tracing
	// Miner must not run concurrent Mines.
	Trace *trace.Recorder
	// Cancel, when non-nil, is polled at every pattern-base expansion: once
	// it trips, the recursion unwinds and Mine returns Cancel.Err(). Nil
	// disables the check at the cost of one nil test per node.
	Cancel *cancel.Flag
}

// Miner is an FP-Growth frequent itemset miner.
type Miner struct {
	opts Options
	tk   *trace.Track
}

// track lazily creates the miner's kernel-span track.
func (m *Miner) track() *trace.Track {
	if m.opts.Trace == nil {
		return nil
	}
	if m.tk == nil {
		m.tk = m.opts.Trace.NewTrack(m.Name())
	}
	return m.tk
}

// New returns an FP-Growth miner with the given options.
func New(opts Options) *Miner { return &Miner{opts: opts} }

// Name implements mine.Miner.
func (m *Miner) Name() string { return "fpgrowth(" + m.opts.Patterns.String() + ")" }

// weightedTx is one row of a (conditional) pattern base: items sorted by
// the current tree's frequency order at insertion time.
type weightedTx struct {
	items []dataset.Item
	w     int32
}

// tree is the layout-independent FP-tree contract. Build/condBase inner
// loops are concrete per layout; only the per-item dispatch is virtual.
type tree interface {
	// build discards the previous contents and constructs the tree from the
	// base. Every item is a rank below bound; rows must already be filtered
	// to frequent items and sorted by decreasing frequency (increasing
	// rank).
	build(base []weightedTx, bound int)
	// items returns the distinct items present, in the order they should
	// be expanded (least frequent first).
	items() []dataset.Item
	// support returns the summed count of the item's node-links.
	support(item dataset.Item) int32
	// condBase invokes emit for every node-link of item: the node's count
	// and its root-ward path (item ids, nearest ancestor first). The path
	// slice is only valid during the call.
	condBase(item dataset.Item, emit func(path []dataset.Item, w int32))
}

// Mine implements mine.Miner.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	// FP-trees inherently order items by decreasing frequency within
	// every transaction. P1 additionally sorts the *transactions*
	// lexicographically so consecutive insertions share tree paths.
	var work *dataset.DB
	var ord *lexorder.Ordering
	if m.opts.Patterns.Has(mine.Lex) {
		work, ord = lexorder.Apply(db)
	} else {
		work, ord = lexorder.ApplyRelabelOnly(db)
	}

	// Build the root pattern base: drop globally infrequent items (they
	// cannot appear in any frequent itemset). Items are frequency ranks, so
	// the frequent ones are exactly the ranks below the first infrequent
	// rank, and every tree's header is bounded by that rank rather than by
	// the whole alphabet. Rows are sorted by rank, so each row's frequent
	// items are a prefix of it.
	bound := 0
	for bound < work.NumItems && ord.Freq[ord.Orig[bound]] >= minSupport {
		bound++
	}
	base := make([]weightedTx, 0, len(work.Tx))
	for _, t := range work.Tx {
		k := 0
		for k < len(t) && int(t[k]) < bound {
			k++
		}
		if k > 0 {
			base = append(base, weightedTx{items: t[:k:k], w: 1})
		}
	}
	if len(base) == 0 {
		return nil
	}

	st := &state{m: m, minsup: int32(minSupport), collect: c, ord: ord,
		condFreq: make([]int32, bound), met: m.opts.Metrics.NewLocal(),
		tk: m.track(), cf: m.opts.Cancel}
	st.mineBase(base, bound)
	m.opts.Metrics.Flush(st.met)
	return m.opts.Cancel.Err()
}

type state struct {
	m       *Miner
	minsup  int32
	collect mine.Collector
	ord     *lexorder.Ordering
	prefix  []dataset.Item
	// flat is the P4-compacted conditional-base buffer, reused across the
	// whole recursion.
	flat []dataset.Item
	// condFreq/condTouched implement a resettable conditional frequency
	// counter over the frequent ranks.
	condFreq    []int32
	condTouched []dataset.Item
	// levels[d] is the scratch of recursion depth d, reused by every
	// pattern base mined at that depth.
	levels []*level
	met    *metrics.Local
	tk     *trace.Track
	cf     *cancel.Flag
}

// level is one recursion depth's tree and conditional-base row headers.
// Both are free again once the depth's current item has been expanded.
type level struct {
	t    tree
	cond []weightedTx
}

func (st *state) emit(support int32) {
	st.met.Emit()
	st.collect.Collect(st.ord.Restore(st.prefix), int(support))
}

// newTree picks the node layout per P2.
func (st *state) newTree() tree {
	if st.m.opts.Patterns.Has(mine.Adapt) {
		span := st.m.opts.AggSpan
		if span == 0 {
			span = 4
		}
		return &compactTree{aggregate: st.m.opts.Patterns.Has(mine.Aggregate), aggSpan: span,
			prefetch: st.m.opts.Patterns.Has(mine.Prefetch) || st.m.opts.Patterns.Has(mine.PrefetchPtr)}
	}
	return &pointerTree{prefetch: st.m.opts.Patterns.Has(mine.Prefetch) || st.m.opts.Patterns.Has(mine.PrefetchPtr)}
}

// mineBase builds the FP-tree for a pattern base and grows patterns from
// it, recursing on conditional bases. Every item of base is a rank below
// bound.
func (st *state) mineBase(base []weightedTx, bound int) {
	if st.cf.Cancelled() {
		return
	}
	depth := len(st.prefix)
	if depth == len(st.levels) {
		st.levels = append(st.levels, &level{t: st.newTree()})
	}
	lv := st.levels[depth]
	t := lv.t
	t.build(base, bound)
	st.met.Node()

	compact := st.m.opts.Patterns.Has(mine.Compact)
	root := depth == 0

	// gather appends one node-link's path to the conditional base of the
	// item being expanded, counting conditional item frequencies in the
	// same pass.
	gather := func(path []dataset.Item, w int32) {
		if len(path) == 0 {
			return
		}
		for _, it := range path {
			if st.condFreq[it] == 0 {
				st.condTouched = append(st.condTouched, it)
			}
			st.condFreq[it] += w
		}
		var row []dataset.Item
		if compact {
			// P4: copy the path into the shared flat buffer, not a
			// slice of its own. A row made before the buffer grows
			// keeps the old backing array, which stays valid.
			start := len(st.flat)
			st.flat = append(st.flat, path...)
			row = st.flat[start:len(st.flat):len(st.flat)]
		} else {
			row = append([]dataset.Item(nil), path...)
		}
		lv.cond = append(lv.cond, weightedTx{items: row, w: w})
	}

	for _, e := range t.items() {
		if st.cf.Cancelled() {
			return
		}
		sup := t.support(e)
		st.met.Support(1)
		if sup < st.minsup {
			st.met.Prune()
			continue
		}
		var ts int64
		if root && st.tk != nil {
			ts = st.tk.Begin()
		}
		st.prefix = append(st.prefix, e)
		st.emit(sup)

		// Gather the conditional pattern base of e. Its paths hold only
		// ancestors of e's nodes, i.e. ranks below e.
		st.condTouched = st.condTouched[:0]
		lv.cond = lv.cond[:0]
		flatStart := len(st.flat)
		t.condBase(e, gather)

		// Filter to conditionally frequent items; drop empty rows.
		anyFreq := false
		for _, it := range st.condTouched {
			if st.condFreq[it] >= st.minsup {
				anyFreq = true
				break
			}
		}
		if anyFreq {
			sub := lv.cond[:0]
			for _, row := range lv.cond {
				keep := row.items[:0]
				for _, it := range row.items {
					if st.condFreq[it] >= st.minsup {
						keep = append(keep, it)
					}
				}
				if len(keep) > 0 {
					// Paths arrive nearest-ancestor-first, i.e. in
					// decreasing item-id (increasing frequency-rank)
					// order; rows must hold increasing ids. Reverse.
					for i, j := 0, len(keep)-1; i < j; i, j = i+1, j-1 {
						keep[i], keep[j] = keep[j], keep[i]
					}
					sub = append(sub, weightedTx{items: keep, w: row.w})
				}
			}
			// Reset the shared counters before recursing; sub rows are
			// already filtered.
			for _, it := range st.condTouched {
				st.condFreq[it] = 0
			}
			if len(sub) > 0 {
				st.mineBase(sub, int(e))
			}
		} else {
			for _, it := range st.condTouched {
				st.condFreq[it] = 0
			}
		}
		st.flat = st.flat[:flatStart]
		st.prefix = st.prefix[:len(st.prefix)-1]
		if root && st.tk != nil {
			st.tk.End(ts, "subtree", trace.CatKernel, int64(e))
		}
	}
}
