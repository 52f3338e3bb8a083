// Package lcm implements the LCM-style kernel of paper §4.1: a depth-first
// frequent itemset miner over a horizontal, array-based sparse database,
// augmented with an item-major occurrence array (OccArray) whose columns
// point at the transactions containing each item.
//
// The two hot functions the paper profiles are reproduced:
//
//   - CalcFreq (54% of runtime): for an extension item e, traverse the occ
//     column of e, follow the pointers to transaction rows, and accumulate
//     the conditional frequencies of the items in those rows;
//   - RmDupTrans (25% of runtime): merge identical conditional
//     transactions via bucket (radix-style) sorting, accumulating weights.
//
// Applicable patterns (Table 4): P1 Lex (initial database layout), P3
// Aggregation (the RmDupTrans bucket lists), P4 Compaction (the frequency
// counters), P6.1 Tiling (slicing the OccArray by transaction-offset
// range), P7.1 Wave-front prefetch (natively emulated as read-ahead
// touches; modelled cycle-accurately in internal/simkern).
package lcm

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
	// TileRows overrides the number of transaction rows per tile when
	// Patterns has Tile. Zero sizes tiles so one tile's transaction data
	// fits a 16 KiB L1 slice, following the paper ("we choose the tile
	// size to fit in the L1 cache").
	TileRows int
	// PrefetchDist is the read-ahead distance of the wave-front prefetch
	// emulation. Zero means 8.
	PrefetchDist int
	// Metrics, when non-nil, receives run-time counters: nodes expanded,
	// support countings (one per support value computed in a conditional
	// database), itemsets emitted and candidate prunes. Nil disables
	// recording at the cost of one nil-check per counter site.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives coarse recursion spans on sequential
	// runs: one span per first-level subtree (the same track is reused
	// across Mine calls, so the miner must not run concurrent Mines).
	// Under the task-parallel scheduler the workers' own task spans cover
	// the timeline and kernel spans are suppressed. Nil disables tracing.
	Trace *trace.Recorder
	// Cancel, when non-nil, is polled at every recursion node: once it
	// trips, the recursion unwinds without mining further and Mine returns
	// Cancel.Err(). Nil disables the check at the cost of one nil test per
	// node — the same discipline as Metrics/Trace.
	Cancel *cancel.Flag
}

// Miner is an LCM-style frequent itemset miner.
type Miner struct {
	opts Options
	tk   *trace.Track // lazily created sequential-run trace track
}

// track returns the miner's sequential-run trace track, creating it on
// first use; nil when tracing is disabled.
func (m *Miner) track() *trace.Track {
	if m.opts.Trace == nil {
		return nil
	}
	if m.tk == nil {
		m.tk = m.opts.Trace.NewTrack(m.Name())
	}
	return m.tk
}

// New returns an LCM miner with the given options.
func New(opts Options) *Miner { return &Miner{opts: opts} }

// Name implements mine.Miner.
func (m *Miner) Name() string { return "lcm(" + m.opts.Patterns.String() + ")" }

// cdb is a (conditional) database: weighted transactions whose items are
// strictly below the alphabet bound `items`, stored in increasing order.
// Children keep the parent's item identities; only the bound shrinks.
type cdb struct {
	tx    [][]dataset.Item
	w     []int32
	items int
}

// Mine implements mine.Miner.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return m.MineSplit(db, minSupport, c, nil)
}

// MineSplit implements mine.Splitter: identical to Mine, except that when
// sp is non-nil every recursion node's conditional database may be offered
// to the scheduler as a stealable task, weighted by its item-occurrence
// count. A stolen subtree is mined by a fresh state (own counters, own
// prefix copy) on the executing worker; its conditional database shares no
// mutable memory with the parent (projection materialises new rows).
func (m *Miner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	work := db
	var ord *lexorder.Ordering
	if m.opts.Patterns.Has(mine.Lex) {
		work, ord = lexorder.Apply(db)
	}

	root := &cdb{items: work.NumItems}
	root.tx = make([][]dataset.Item, len(work.Tx))
	root.w = make([]int32, len(work.Tx))
	for i, t := range work.Tx {
		root.tx[i] = t
		root.w[i] = 1
	}
	// RmDupTrans on the initial database exercises the paper's
	// second-hottest function and shrinks the working set up front.
	root = m.rmDupTrans(root)

	st := &state{m: m, minsup: int32(minSupport), collect: c, ord: ord, sp: sp,
		cf: m.opts.Cancel, met: m.opts.Metrics.NewLocal()}
	if sp == nil {
		// Sequential run: first-level subtrees become trace spans. Under
		// the scheduler the worker tracks own the timeline instead.
		st.tk = m.track()
	}
	st.cnt = m.newCounters(work.NumItems)
	st.mineNode(root, true)
	m.opts.Metrics.Flush(st.met)
	// A cancelled run unwound early; report why (context.Canceled or
	// DeadlineExceeded) instead of pretending the enumeration completed.
	return m.opts.Cancel.Err()
}

// newCounters picks the CalcFreq counter layout for the P4 contrast.
func (m *Miner) newCounters(n int) counters {
	if m.opts.Patterns.Has(mine.Compact) {
		return newCompactCounters(n)
	}
	return newScatteredCounters(n)
}

// state carries the per-Mine mutable context through the recursion. Each
// stolen subtree task gets its own state; states never share mutable
// memory (m, ord and sp are read-only / concurrency-safe).
type state struct {
	m       *Miner
	minsup  int32
	collect mine.Collector
	ord     *lexorder.Ordering
	sp      mine.Spawner
	cf      *cancel.Flag
	met     *metrics.Local
	tk      *trace.Track // sequential-run trace track; nil on workers
	cnt     counters
	prefix  []dataset.Item
	emitBuf []dataset.Item
	touched []dataset.Item
	// projItems, projEnds and projW stage one projection's rows (items
	// back-to-back, each row's end offset, each row's weight).
	projItems []dataset.Item
	projEnds  []int32
	projW     []int32
}

// descend recurses into child sequentially, unless the scheduler accepts
// it as a stealable task (weighted by the child's item-occurrence count).
// The spawned closure rebuilds a full state on the executing worker; the
// prefix is copied because the parent keeps mutating its own.
func (st *state) descend(child *cdb) {
	if st.sp != nil {
		if w := mine.SubtreeWeight(child.tx); st.sp.WouldSteal(w) {
			prefix := append([]dataset.Item(nil), st.prefix...)
			m, minsup, ord := st.m, st.minsup, st.ord
			if st.sp.Offer(w, func(c mine.Collector, sp mine.Spawner) error {
				ns := &state{m: m, minsup: minsup, collect: c, ord: ord, sp: sp, prefix: prefix,
					cf: m.opts.Cancel, met: m.opts.Metrics.NewLocal()}
				ns.cnt = m.newCounters(child.items)
				ns.mineNode(child, false)
				m.opts.Metrics.Flush(ns.met)
				return nil
			}) {
				return
			}
		}
	}
	st.mineNode(child, false)
}

func (st *state) emit(support int32) {
	st.met.Emit()
	if st.ord != nil {
		st.collect.Collect(st.ord.Restore(st.prefix), int(support))
		return
	}
	// The recursion appends extensions in decreasing item order; report
	// itemsets in canonical increasing order.
	st.emitBuf = st.emitBuf[:0]
	for i := len(st.prefix) - 1; i >= 0; i-- {
		st.emitBuf = append(st.emitBuf, st.prefix[i])
	}
	st.collect.Collect(st.emitBuf, int(support))
}

// aborted reports whether the recursion should unwind: the run's cancel
// flag tripped (ctx cancellation/deadline) or, under the scheduler, the
// pool aborted. Both checks are one nil test plus one atomic load.
func (st *state) aborted() bool {
	return st.cf.Cancelled() || (st.sp != nil && st.sp.Cancelled())
}

// mineNode enumerates all frequent extensions of the current prefix within
// the conditional database d. root enables the top-level tiling path: the
// paper tiles the initial database, which is "the largest and is accessed
// most frequently".
func (st *state) mineNode(d *cdb, root bool) {
	if st.aborted() {
		return
	}
	occ, support := buildOcc(d)
	// One node expanded; its support countings are the support values just
	// computed over the conditional alphabet.
	st.met.Node()
	st.met.Support(d.items)
	if root && st.m.opts.Patterns.Has(mine.Tile) {
		// The tiled root interleaves per-tile counter accumulation across
		// items, so per-subtree spans do not apply; one span covers it.
		var ts int64
		if st.tk != nil {
			ts = st.tk.Begin()
		}
		st.mineRootTiled(d, occ, support)
		if st.tk != nil {
			st.tk.End(ts, "root(tiled)", trace.CatKernel, int64(d.items))
		}
		return
	}
	// Descending item order: each child database only contains items
	// smaller than the extension, so every itemset is enumerated once.
	for e := dataset.Item(d.items) - 1; e >= 0; e-- {
		if support[e] < st.minsup {
			if support[e] > 0 {
				st.met.Prune()
			}
			continue
		}
		// Coarse trace boundary: each first-level subtree is one span
		// (st.tk is nil below the root and whenever tracing is disabled).
		var ts int64
		if root && st.tk != nil {
			ts = st.tk.Begin()
		}
		st.prefix = append(st.prefix, e)
		st.emit(support[e])
		st.calcFreq(d, occ[e], e)
		child := st.project(d, occ[e], e, st.cnt.get)
		st.cnt.reset(st.touched)
		if child != nil {
			st.descend(child)
		}
		st.prefix = st.prefix[:len(st.prefix)-1]
		if root && st.tk != nil {
			st.tk.End(ts, "subtree", trace.CatKernel, int64(e))
		}
	}
}

// buildOcc computes the OccArray of d — for each item the row indices of
// the transactions containing it, in increasing row order — plus each
// item's weighted support. A counting pass sizes every column first, so
// the columns are consecutive slices of one array.
func buildOcc(d *cdb) ([][]int32, []int32) {
	occ := make([][]int32, d.items)
	support := make([]int32, d.items)
	total := 0
	for _, t := range d.tx {
		total += len(t)
		for _, it := range t {
			support[it]++
		}
	}
	flat := make([]int32, total)
	off := int32(0)
	for it, n := range support {
		occ[it] = flat[off : off : off+n]
		off += n
		support[it] = 0
	}
	for ti, t := range d.tx {
		w := d.w[ti]
		for _, it := range t {
			occ[it] = append(occ[it], int32(ti))
			support[it] += w
		}
	}
	return occ, support
}

// calcFreq is the CalcFreq hot loop: traverse the occ column of e, follow
// the row pointers, and accumulate the conditional frequencies of the items
// preceding e into st.cnt, recording which counters were touched.
func (st *state) calcFreq(d *cdb, col []int32, e dataset.Item) {
	st.touched = st.touched[:0]
	dist := st.m.opts.PrefetchDist
	if dist == 0 {
		dist = 8
	}
	prefetch := st.m.opts.Patterns.Has(mine.Prefetch)
	for i, ti := range col {
		if prefetch && i+dist < len(col) {
			// Wave-front emulation: touch the header of a row several
			// iterations ahead so the memory system streams it in.
			if ahead := d.tx[col[i+dist]]; len(ahead) > 0 {
				_ = ahead[0]
			}
		}
		w := d.w[ti]
		for _, it := range d.tx[ti] {
			if it >= e {
				break
			}
			if st.cnt.get(it) == 0 {
				st.touched = append(st.touched, it)
			}
			st.cnt.add(it, w)
		}
	}
}

// project materialises the conditional database of e: the rows of occ
// column e restricted to items below e that are frequent in the child
// (per the freq accessor), followed by RmDupTrans. Returns nil when the
// child is empty.
//
// The rows are staged in the state's reused buffers, then copied into one
// arena allocated at its final size, and re-sliced out of it: a projection
// costs a fixed handful of allocations however many rows it has. The
// child owns its arena, so a stolen child shares nothing with the parent.
func (st *state) project(d *cdb, col []int32, e dataset.Item, freq func(dataset.Item) int32) *cdb {
	items, ends, w := st.projItems[:0], st.projEnds[:0], st.projW[:0]
	for _, ti := range col {
		start := len(items)
		for _, it := range d.tx[ti] {
			if it >= e {
				break
			}
			if freq(it) >= st.minsup {
				items = append(items, it)
			}
		}
		if len(items) > start {
			ends = append(ends, int32(len(items)))
			w = append(w, d.w[ti])
		}
	}
	st.projItems, st.projEnds, st.projW = items, ends, w
	if len(ends) == 0 {
		return nil
	}
	arena := append([]dataset.Item(nil), items...)
	child := &cdb{items: int(e), tx: make([][]dataset.Item, len(ends)), w: append([]int32(nil), w...)}
	start := int32(0)
	for i, end := range ends {
		child.tx[i] = arena[start:end:end]
		start = end
	}
	return st.m.rmDupTrans(child)
}

// mineRootTiled is the P6.1 path. The OccArray is sliced into horizontal
// tiles by transaction-offset range; the outer loop walks tiles and the
// inner loop performs the CalcFreq accumulation of every frequent column
// restricted to the tile, so one tile's transaction rows are reused across
// all columns while they are cache-resident. The per-column counters this
// requires are exactly the paper's "frequency counters … structured with
// the OccArray".
func (st *state) mineRootTiled(d *cdb, occ [][]int32, support []int32) {
	var freqItems []dataset.Item
	for e := dataset.Item(0); int(e) < d.items; e++ {
		if support[e] >= st.minsup {
			freqItems = append(freqItems, e)
		} else if support[e] > 0 {
			st.met.Prune()
		}
	}
	if len(freqItems) == 0 {
		return
	}

	// Per-column conditional frequency counters.
	cnt := make([][]int32, d.items)
	for _, e := range freqItems {
		cnt[e] = make([]int32, e)
	}

	rows := st.m.opts.TileRows
	if rows == 0 {
		// Size the tile so its transaction data (~avgLen items × 4 bytes)
		// fits a 16 KiB L1 slice.
		total := 0
		for _, t := range d.tx {
			total += len(t)
		}
		avg := total/len(d.tx) + 1
		rows = 16384 / (avg * 4)
		if rows < 64 {
			rows = 64
		}
	}

	cursor := make([]int, d.items) // per-column progress through occ
	for lo := 0; lo < len(d.tx); lo += rows {
		if st.aborted() {
			return
		}
		hi := lo + rows
		if hi > len(d.tx) {
			hi = len(d.tx)
		}
		for _, e := range freqItems {
			col := occ[e]
			cur := cursor[e]
			ce := cnt[e]
			for cur < len(col) && int(col[cur]) < hi {
				ti := col[cur]
				w := d.w[ti]
				for _, it := range d.tx[ti] {
					if it >= e {
						break
					}
					ce[it] += w
				}
				cur++
			}
			cursor[e] = cur
		}
	}

	// Consume the counters: same descending-order recursion as the
	// untiled path, but the CalcFreq work is already done.
	for i := len(freqItems) - 1; i >= 0; i-- {
		if st.aborted() {
			return
		}
		e := freqItems[i]
		st.prefix = append(st.prefix, e)
		st.emit(support[e])
		ce := cnt[e]
		child := st.project(d, occ[e], e, func(it dataset.Item) int32 { return ce[it] })
		if child != nil {
			st.descend(child)
		}
		st.prefix = st.prefix[:len(st.prefix)-1]
	}
}
