// Package eclat implements the Eclat kernel studied in paper §4.2: a
// depth-first miner over a vertical, dense bit-matrix database. Columns
// initially represent items' occurrences over transactions; the AND of two
// columns is the occurrence vector of the union of their itemsets, and
// counting ones computes support. 98% of the original code's time is spent
// in this AND + count loop, so the applicable patterns (Table 4) are
//
//	P1 Lex  — lexicographic ordering clusters the 1s of frequent items at
//	          the start of the vectors and enables 0-escaping (skipping
//	          all-zero head/tail words via conservative 1-ranges). The
//	          classes still expand in ascending frequency, least frequent
//	          item first: the descending-frequency ranks lay out the rows,
//	          not the search, so the most frequent items never lead the
//	          large classes;
//	P8 SIMD — replaces the baseline per-byte table-lookup popcount (an
//	          indirect load that defeats vectorization) with word-parallel
//	          computational popcount, fused with the AND and unrolled four
//	          ways.
package eclat

import (
	"slices"

	"fpm/internal/bitvec"
	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/lexorder"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// Options selects the tuning patterns applied by the miner. Patterns
// outside mine.Applicable(mine.Eclat) are ignored.
type Options struct {
	Patterns mine.PatternSet
	// Metrics, when non-nil, receives run-time counters: nodes expanded
	// (class members extended), support countings (AND+count operations),
	// itemsets emitted and candidate prunes. Nil disables recording at the
	// cost of one nil-check per counter site.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives coarse kernel spans: one span per
	// first-level subtree, on sequential runs only (under the scheduler the
	// worker task spans own the timeline). The track is cached on the Miner
	// and reused across Mine calls, so a tracing Miner must not run
	// concurrent Mines.
	Trace *trace.Recorder
	// Cancel, when non-nil, is polled at every class-recursion node: once
	// it trips, the recursion unwinds and Mine returns Cancel.Err(). Nil
	// disables the check at the cost of one nil test per node.
	Cancel *cancel.Flag
}

// Miner is an Eclat frequent itemset miner.
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

// New returns an Eclat miner with the given options.
func New(opts Options) *Miner { return &Miner{opts: opts} }

// Name implements mine.Miner.
func (m *Miner) Name() string { return "eclat(" + m.opts.Patterns.String() + ")" }

// node is one element of the DFS stack's current equivalence class.
type node struct {
	item    dataset.Item
	vec     *bitvec.Vector
	rng     bitvec.OneRange
	support int
}

// Mine implements mine.Miner.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return m.MineSplit(db, minSupport, c, nil)
}

// MineSplit implements mine.Splitter: identical to Mine, except that when
// sp is non-nil each equivalence class produced by extension may be
// offered to the scheduler, weighted by the summed supports of its
// members. The search is the sequential one — the same P1 layout and
// 0-escaping ranges, the same class order — so every worker count does the
// same nodes, support countings and prunes. The class weight is not a
// different unit from the horizontal kernels': support(prefix ∪ {e}) is
// the number of occurrences of e in the transactions containing the
// prefix, so the weight is the item-occurrence count of the class's
// (frequent) items in the subtree's conceptual projected database — the
// same frequent-items occurrence measure mine.SubtreeWeight reports for
// LCM's conditional databases and FP-Growth sums over its conditional
// pattern bases, so one shared spawn cutoff gates comparable work across
// kernels (modulo LCM's RmDupTrans, which shrinks its count by merging
// duplicate transactions). A stolen class carries its
// own vectors, a copy of its node slice and a prefix copy, so it shares no
// mutable state with the spawning recursion.
func (m *Miner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	lex := m.opts.Patterns.Has(mine.Lex)
	simd := m.opts.Patterns.Has(mine.SIMD)

	// P1 lays out only the frequent items, so every item of work gets a
	// vector.
	work := db
	var ord *lexorder.Ordering
	if lex {
		work, ord = lexorder.Frequent(db, minSupport)
	}

	n := work.Len()
	// Build the vertical bit matrix for frequent items only.
	freq := work.Frequencies()
	var roots []node
	vecs := make([]*bitvec.Vector, work.NumItems)
	for it, f := range freq {
		if f >= minSupport {
			vecs[it] = bitvec.New(n)
		}
	}
	for ti, t := range work.Tx {
		for _, it := range t {
			if v := vecs[it]; v != nil {
				v.Set(ti)
			}
		}
	}
	for it, v := range vecs {
		if v == nil {
			continue
		}
		r := bitvec.OneRange{Lo: 0, Hi: v.Words()}
		if lex {
			// "The ranges are initialized by computing the first and last
			// 1 in each item bit-vector" (§4.2).
			r = v.Range()
		}
		roots = append(roots, node{item: dataset.Item(it), vec: v, rng: r, support: freq[it]})
	}
	// Under P1 the items are frequency ranks, rank 0 the most frequent.
	// The root class lists them least frequent first, so each class
	// extends an item with more frequent ones only. The large classes then
	// belong to rare items, whose ANDs fall below the support early, and
	// the most frequent item leads an empty one. This is the conventional
	// Eclat expansion order. In rank order, most frequent first, the same
	// mines do up to eleven times the support countings (EXPERIMENTS.md).
	// The rows keep P1's descending-frequency layout, which keeps the
	// 0-escaping ranges tight.
	if lex {
		slices.Reverse(roots)
	}

	// With lex 0-escaping but without SIMD, counting inside the range
	// still uses the baseline table lookups, so the two patterns compose
	// independently.
	var andCount func(dst, a, b *bitvec.Vector, r bitvec.OneRange) int
	switch {
	case lex && simd:
		andCount = bitvec.AndCountRange
	case lex:
		andCount = bitvec.AndCountRangeTable
	case simd:
		andCount = func(dst, a, b *bitvec.Vector, _ bitvec.OneRange) int { return bitvec.AndCount(dst, a, b) }
	default:
		andCount = func(dst, a, b *bitvec.Vector, _ bitvec.OneRange) int { return bitvec.AndCountTable(dst, a, b) }
	}

	r := &run{n: n, minSupport: minSupport, andCount: andCount, ord: ord, sp: sp,
		cf: m.opts.Cancel, rec: m.opts.Metrics, met: m.opts.Metrics.NewLocal()}
	if sp == nil {
		r.tk = m.track()
	}
	// The root supports were just counted from the horizontal scan, one per
	// alphabet item, the ones P1 dropped included.
	r.met.Support(db.NumItems)
	r.mine(roots, make([]dataset.Item, 0, 32), c)
	m.opts.Metrics.Flush(r.met)
	return m.opts.Cancel.Err()
}

// run carries one goroutine's mining context. A stolen task copies it by
// value and replaces sp, met and the reusable buffers below (see
// descend), so no two goroutines share a run's mutable fields; the prefix
// and the class being mined travel in the arguments of mine.
type run struct {
	n          int
	minSupport int
	andCount   func(dst, a, b *bitvec.Vector, r bitvec.OneRange) int
	ord        *lexorder.Ordering
	sp         mine.Spawner
	cf         *cancel.Flag
	rec        *metrics.Recorder
	met        *metrics.Local // owned by this run's goroutine; stolen tasks get their own
	tk         *trace.Track   // set on sequential runs only; stolen tasks never trace
	// free holds vectors no node refers to any more, for the next AND.
	free []*bitvec.Vector
	// levels[d] is the node slice of the classes built at prefix length
	// d, reused by every sibling class at that depth.
	levels  [][]node
	emitBuf []dataset.Item // an itemset restored to the original items
}

// vector returns a vector of r.n bits from the free list, or a new one.
// Its words are stale: the caller's AND overwrites the range it reads.
func (r *run) vector() *bitvec.Vector {
	if n := len(r.free); n > 0 {
		v := r.free[n-1]
		r.free = r.free[:n-1]
		return v
	}
	return bitvec.New(r.n)
}

func (r *run) emit(c mine.Collector, items []dataset.Item, support int) {
	if r.ord != nil {
		r.emitBuf = r.ord.Restore(r.emitBuf[:0], items)
		items = r.emitBuf
	}
	c.Collect(items, support)
}

// aborted reports whether the class recursion should unwind (run cancel
// flag tripped or the scheduler aborted).
func (r *run) aborted() bool {
	return r.cf.Cancelled() || (r.sp != nil && r.sp.Cancelled())
}

// mine enumerates the subtree of one equivalence class. prefix is owned by
// the caller up to its current length; appends may reallocate freely.
func (r *run) mine(class []node, prefix []dataset.Item, c mine.Collector) {
	if r.aborted() {
		return
	}
	root := len(prefix) == 0
	// scratch receives each candidate's AND. A pruned candidate leaves it
	// for the next one; a surviving candidate keeps it, and the next
	// candidate takes another vector from the free list. Reusing a vector
	// is sound because every read of a node's vector stays inside the
	// node's range, and each AND writes that whole range (see
	// bitvec.AndCountRange).
	var scratch *bitvec.Vector
	for i, nd := range class {
		var ts int64
		if root && r.tk != nil {
			ts = r.tk.Begin()
		}
		r.met.Node()
		prefix = append(prefix, nd.item)
		r.met.Emit()
		r.emit(c, prefix, nd.support)
		depth := len(prefix)
		for len(r.levels) <= depth {
			r.levels = append(r.levels, nil)
		}
		next := r.levels[depth][:0]
		weight := 0
		for _, other := range class[i+1:] {
			rng := nd.rng.Intersect(other.rng)
			if rng.Empty() {
				// 0-escaping skipped the AND entirely: a prune without a
				// support counting.
				r.met.Prune()
				continue
			}
			if scratch == nil {
				scratch = r.vector()
			}
			r.met.Support(1)
			sup := r.andCount(scratch, nd.vec, other.vec, rng)
			if sup < r.minSupport {
				r.met.Prune()
				continue
			}
			next = append(next, node{item: other.item, vec: scratch, rng: rng, support: sup})
			scratch = nil
			// Summed supports = occurrences of the surviving items in the
			// child's projected database: the occurrence unit every spawn
			// cutoff in this codebase is expressed in (see the MineSplit
			// doc comment).
			weight += sup
		}
		r.levels[depth] = next
		if len(next) > 0 {
			r.descend(next, weight, prefix, c)
		}
		prefix = prefix[:len(prefix)-1]
		if root && r.tk != nil {
			r.tk.End(ts, "subtree", trace.CatKernel, int64(nd.item))
		}
	}
	if scratch != nil {
		r.free = append(r.free, scratch)
	}
}

// descend recurses into the class sequentially unless the scheduler
// accepts it as a stealable task. Mined here, the class's vectors return
// to the free list once its subtree is done. The class's vectors are
// referenced by no other node — the spawning recursion's scratch vector
// is never among them — so a stolen class keeps them; its node slice is
// this depth's reused one, and the prefix is the caller's, so both are
// copied. The stolen task's run starts with its own free list, depth
// slices and emission buffer.
func (r *run) descend(next []node, weight int, prefix []dataset.Item, c mine.Collector) {
	if r.sp != nil && r.sp.WouldSteal(weight) {
		class := append([]node(nil), next...)
		pcopy := append([]dataset.Item(nil), prefix...)
		// Copied here: r's buffers change as this recursion goes on.
		nr := *r
		nr.free, nr.levels, nr.emitBuf = nil, nil, nil
		if r.sp.Offer(weight, func(tc mine.Collector, sp mine.Spawner) error {
			nr.sp = sp
			// A stolen class runs on another worker: it must not share the
			// spawning recursion's counter block.
			nr.met = nr.rec.NewLocal()
			nr.mine(class, pcopy, tc)
			nr.rec.Flush(nr.met)
			return nil
		}) {
			return
		}
	}
	r.mine(next, prefix, c)
	for _, nd := range next {
		r.free = append(r.free, nd.vec)
	}
}
