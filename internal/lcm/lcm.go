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
// Each conditional database carries the ascending list of the items that
// occur in it, built while it is projected, so a node's counting, OccArray
// set-up and extension loop walk that list, not the alphabet below its
// bound; only the root's set-up scans the alphabet, once per mine.
//
// Applicable patterns (Table 4): P1 Lex (initial database layout), P3
// Aggregation (the RmDupTrans bucket lists), P4 Compaction (the frequency
// counters), P6.1 Tiling (slicing the OccArray by transaction-offset
// range) and P7.1 Wave-front prefetch. Only P1 and P6.1 select a code
// path. The kernel always runs the P3 bucket lists and the P4 counter
// slice, which are the only layouts it has, and it accepts the Aggregate,
// Compact and Prefetch bits and ignores them: their baselines (linked
// buckets, padded counters) and Go's read-ahead "touches" in place of
// prefetch instructions never paid natively. internal/simkern models all
// five patterns cycle by cycle.
package lcm

import (
	"slices"

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
// list holds, ascending, the items that occur in the transactions: a
// node's work walks it instead of the alphabet below the bound. The root
// starts without one and buildOcc lists its items in the mine's one pass
// over the alphabet.
type cdb struct {
	tx    [][]dataset.Item
	w     []int32
	items int
	list  []dataset.Item
}

// Mine implements mine.Miner.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return m.MineSplit(db, minSupport, c, nil)
}

// MineSplit implements mine.Splitter: identical to Mine, except that when
// sp is non-nil every recursion node's conditional database may be offered
// to the scheduler as a stealable task, weighted by its item-occurrence
// count. A stolen subtree is mined by a fresh state (own counters, own
// depth storage, own prefix copy) on the executing worker; its conditional
// database is copied out of the parent's depth storage when it is offered,
// so it shares no mutable memory with the parent.
func (m *Miner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	// P1 lays out only the frequent items: an infrequent item can extend
	// no prefix, so the root OccArray, counters and tiles need not cover
	// it.
	work := db
	var ord *lexorder.Ordering
	if m.opts.Patterns.Has(mine.Lex) {
		work, ord = lexorder.Frequent(db, minSupport)
	}

	root := &cdb{items: work.NumItems}
	root.tx = make([][]dataset.Item, len(work.Tx))
	root.w = make([]int32, len(work.Tx))
	for i, t := range work.Tx {
		root.tx[i] = t
		root.w[i] = 1
	}
	st := &state{m: m, minsup: int32(minSupport), collect: c, ord: ord, sp: sp,
		cf: m.opts.Cancel, met: m.opts.Metrics.NewLocal()}
	// RmDupTrans on the initial database exercises the paper's
	// second-hottest function and shrinks the working set up front.
	root = st.rmDupTrans(root)
	if sp == nil {
		// Sequential run: first-level subtrees become trace spans. Under
		// the scheduler the worker tracks own the timeline instead.
		st.tk = m.track()
	}
	st.cnt = make([]int32, work.NumItems)
	if ord != nil && st.met != nil {
		// The frequency scan counted the dropped items too; charge them as
		// the untrimmed root would, one counting each and one prune per
		// occurring one.
		st.met.Support(db.NumItems - work.NumItems)
		for _, f := range ord.Freq {
			if f > 0 && f < minSupport {
				st.met.Prune()
			}
		}
	}
	st.mineNode(root, true)
	m.opts.Metrics.Flush(st.met)
	// A cancelled run unwound early; report why (context.Canceled or
	// DeadlineExceeded) instead of pretending the enumeration completed.
	return m.opts.Cancel.Err()
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
	// cnt holds CalcFreq's conditional frequencies, one int32 per item of
	// the conditional alphabet, zero between calcFreq calls.
	cnt     []int32
	prefix  []dataset.Item
	emitBuf []dataset.Item
	touched []dataset.Item
	// projEnds stages the end offsets of one projection's rows.
	projEnds []int32
	// buckets is RmDupTrans's bucket table, reused by every call.
	buckets [][]int32
	// levels[d] is the storage of recursion depth d (prefix length d),
	// reused by every sibling mined at that depth.
	levels []*level
}

// level is one recursion depth's storage: the conditional database mined
// at that depth (rows cut from one item arena, and its item list) and its
// OccArray. The next sibling at the depth rebuilds both in place, once the
// previous sibling's subtree has been mined.
type level struct {
	db    cdb
	items []dataset.Item // db's rows, back to back
	// occ's columns are consecutive slices of flat; support holds each
	// item's weighted support. Both are indexed by item id and only the
	// listed items' entries are meaningful.
	occ     [][]int32
	flat    []int32
	support []int32
}

// level returns the storage of recursion depth d, creating it on first
// use. A stolen subtree's state starts at the depth of its prefix, so the
// slots below that depth stay nil.
func (st *state) level(d int) *level {
	for len(st.levels) <= d {
		st.levels = append(st.levels, nil)
	}
	if st.levels[d] == nil {
		st.levels[d] = &level{}
	}
	return st.levels[d]
}

// clone copies d into fresh memory: one arena holding the rows back to
// back, sized by total, the item occurrences of d.
func (d *cdb) clone(total int) *cdb {
	arena := make([]dataset.Item, 0, total)
	c := &cdb{items: d.items, tx: make([][]dataset.Item, len(d.tx)), w: append([]int32(nil), d.w...),
		list: append([]dataset.Item(nil), d.list...)}
	for i, t := range d.tx {
		start := len(arena)
		arena = append(arena, t...)
		c.tx[i] = arena[start:len(arena):len(arena)]
	}
	return c
}

// descend recurses into child sequentially, unless the scheduler accepts
// it as a stealable task (weighted by the child's item-occurrence count).
// child lives in this state's depth storage, which the next sibling
// overwrites, so a child offered to the scheduler is first cloned; the
// spawned closure rebuilds a full state on the executing worker, and the
// prefix is copied because the parent keeps mutating its own.
func (st *state) descend(child *cdb) {
	if st.sp != nil {
		if w := mine.SubtreeWeight(child.tx); st.sp.WouldSteal(w) {
			own := child.clone(w)
			prefix := append([]dataset.Item(nil), st.prefix...)
			m, minsup, ord := st.m, st.minsup, st.ord
			if st.sp.Offer(w, func(c mine.Collector, sp mine.Spawner) error {
				ns := &state{m: m, minsup: minsup, collect: c, ord: ord, sp: sp, prefix: prefix,
					cf: m.opts.Cancel, met: m.opts.Metrics.NewLocal()}
				ns.cnt = make([]int32, own.items)
				ns.mineNode(own, false)
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
		st.emitBuf = st.ord.Restore(st.emitBuf[:0], st.prefix)
		st.collect.Collect(st.emitBuf, int(support))
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
	// One node expanded; its support countings are the support values
	// buildOcc computes: the whole alphabet at the root, the listed items
	// below it.
	st.met.Node()
	if root {
		st.met.Support(d.items)
	} else {
		st.met.Support(len(d.list))
	}
	occ, support := st.level(len(st.prefix)).buildOcc(d)
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
	for i := len(d.list) - 1; i >= 0; i-- {
		e := d.list[i]
		if support[e] < st.minsup {
			st.met.Prune()
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
		child := st.project(d, occ[e], e, st.cnt)
		for _, it := range st.touched {
			st.cnt[it] = 0
		}
		if child != nil {
			st.descend(child)
		}
		st.prefix = st.prefix[:len(st.prefix)-1]
		if root && st.tk != nil {
			st.tk.End(ts, "subtree", trace.CatKernel, int64(e))
		}
	}
}

// buildOcc computes, in lv's OccArray storage, the OccArray of d — for
// each listed item the row indices of the transactions containing it, in
// increasing row order — plus each listed item's weighted support. A
// counting pass sizes every column first, so the columns are consecutive
// slices of one array. Only the listed items' entries are set up, counted
// and reset, so a node costs its rows and its list, not its alphabet. A
// database without a list, the root, has every support cleared and its
// occurring items listed here.
func (lv *level) buildOcc(d *cdb) ([][]int32, []int32) {
	occ := grow(lv.occ, d.items)
	support := grow(lv.support, d.items)
	if d.list == nil {
		clear(support)
	}
	for _, it := range d.list {
		support[it] = 0
	}
	total := 0
	for _, t := range d.tx {
		total += len(t)
		for _, it := range t {
			support[it]++
		}
	}
	if d.list == nil {
		for it, n := range support {
			if n > 0 {
				d.list = append(d.list, dataset.Item(it))
			}
		}
	}
	flat := grow(lv.flat, total)
	lv.occ, lv.support, lv.flat = occ, support, flat
	off := int32(0)
	for _, it := range d.list {
		n := support[it]
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

// grow returns s resliced to length n. When its capacity is short it is
// reallocated to at least twice that capacity, so a depth whose siblings
// grow slowly reallocates a logarithmic number of times. The contents are
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// calcFreq is the CalcFreq hot loop: traverse the occ column of e, follow
// the row pointers, and accumulate the conditional frequencies of the items
// preceding e into st.cnt, recording which counters were touched.
func (st *state) calcFreq(d *cdb, col []int32, e dataset.Item) {
	st.touched = st.touched[:0]
	cnt := st.cnt
	for _, ti := range col {
		w := d.w[ti]
		for _, it := range d.tx[ti] {
			if it >= e {
				break
			}
			if cnt[it] == 0 {
				st.touched = append(st.touched, it)
			}
			cnt[it] += w
		}
	}
}

// listed marks, in project's frequency counters, an item already kept and
// listed. Kept items have a frequency of at least minsup ≥ 1 and dropped
// ones a non-negative one below it, so the mark is neither.
const listed = -1

// project materialises the conditional database of e: the rows of occ
// column e restricted to items below e that are frequent in the child
// (freq holds their conditional frequencies), followed by RmDupTrans.
// Returns nil when the child is empty. The child's list gathers each kept
// item on its first occurrence, which project marks in freq: the counters
// are spent by the call.
//
// The child is built in the storage of the depth it is mined at, the
// prefix length: its rows are cut from that depth's item arena and its
// row headers, weights and list reuse that depth's slices, so once a
// depth has grown to fit its largest sibling a projection allocates
// nothing. The child is valid until the next projection at the same
// depth.
func (st *state) project(d *cdb, col []int32, e dataset.Item, freq []int32) *cdb {
	lv := st.level(len(st.prefix))
	items, ends, w, list := lv.items[:0], st.projEnds[:0], lv.db.w[:0], lv.db.list[:0]
	for _, ti := range col {
		start := len(items)
		for _, it := range d.tx[ti] {
			if it >= e {
				break
			}
			// As unsigned, the listed mark is above every frequency, so
			// one comparison keeps the frequent and the listed items.
			if f := freq[it]; uint32(f) >= uint32(st.minsup) {
				if f != listed {
					freq[it] = listed
					list = append(list, it)
				}
				items = append(items, it)
			}
		}
		if len(items) > start {
			ends = append(ends, int32(len(items)))
			w = append(w, d.w[ti])
		}
	}
	lv.items, st.projEnds, lv.db.list = items, ends, list
	if len(ends) == 0 {
		return nil
	}
	slices.Sort(list)
	tx := grow(lv.db.tx, len(ends))
	start := int32(0)
	for i, end := range ends {
		tx[i] = items[start:end:end]
		start = end
	}
	lv.db.tx, lv.db.w, lv.db.items = tx, w, int(e)
	return st.rmDupTrans(&lv.db)
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
	for _, e := range d.list {
		if support[e] >= st.minsup {
			freqItems = append(freqItems, e)
		} else {
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
		child := st.project(d, occ[e], e, cnt[e])
		if child != nil {
			st.descend(child)
		}
		st.prefix = st.prefix[:len(st.prefix)-1]
	}
}
