// Package hmine implements H-mine (Pei et al., ICDM'01 — the paper's
// [25]), the hyper-structure miner the paper lists among the algorithms
// that "adapt the algorithm's data structures ... according to input
// features". Its defining property is that conditional databases are never
// materialised: transactions live once in shared arrays, and each
// recursion level only threads hyper-links (transaction, position) into
// per-item queues. That makes it memory-frugal on sparse data where
// FP-trees don't compress and LCM-style projection copies churn.
//
// This implementation keeps the shared-array + queue essence and rebuilds
// the child queues by scanning transaction prefixes (the original paper's
// in-place queue re-threading is an optimization of the same walk).
package hmine

import (
	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// Miner is an H-mine frequent itemset miner.
type Miner struct {
	rec *metrics.Recorder
	tr  *trace.Recorder
	tk  *trace.Track
	cf  *cancel.Flag
}

// New returns an H-mine miner.
func New() *Miner { return &Miner{} }

// NewInstrumented returns an H-mine miner that records run-time counters
// into rec — nodes expanded (header tables processed), support countings
// (queue lengths read), itemsets emitted and candidate prunes — and one
// coarse kernel span per first-level subtree into tr. Only construct
// tracing miners for sequential runs — under the scheduler the worker task
// spans own the timeline. The track is cached on the Miner and reused across Mine calls,
// so a tracing Miner must not run concurrent Mines. cf, when non-nil, is
// polled at every header-table item: once it trips, the recursion unwinds
// and Mine returns cf.Err(). Any argument may be nil.
func NewInstrumented(rec *metrics.Recorder, tr *trace.Recorder, cf *cancel.Flag) *Miner {
	return &Miner{rec: rec, tr: tr, cf: cf}
}

// track lazily creates the miner's kernel-span track.
func (m *Miner) track() *trace.Track {
	if m.tr == nil {
		return nil
	}
	if m.tk == nil {
		m.tk = m.tr.NewTrack(m.Name())
	}
	return m.tk
}

// Name implements mine.Miner.
func (*Miner) Name() string { return "hmine" }

// link is one hyper-link: a transaction and the position of the queue's
// item within it.
type link struct {
	tx  int32
	pos int32
}

// Mine implements mine.Miner.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	// The H-struct: the transactions themselves (shared, never copied)
	// plus the root hyper-link queues.
	queues := make([][]link, db.NumItems)
	for ti, t := range db.Tx {
		for pos, it := range t {
			queues[it] = append(queues[it], link{tx: int32(ti), pos: int32(pos)})
		}
	}

	st := &state{db: db, minsup: minSupport, collect: c, met: m.rec.NewLocal(), tk: m.track(), cf: m.cf}
	st.mineNode(queues, db.NumItems)
	m.rec.Flush(st.met)
	return m.cf.Err()
}

type state struct {
	db      *dataset.DB
	minsup  int
	collect mine.Collector
	prefix  []dataset.Item
	emitBuf []dataset.Item
	met     *metrics.Local
	tk      *trace.Track
	cf      *cancel.Flag
}

// mineNode processes one header table: queues[e] holds the hyper-links of
// item e within the transactions that contain the current prefix; only
// items below bound are present.
func (st *state) mineNode(queues [][]link, bound int) {
	st.met.Node()
	root := len(st.prefix) == 0
	// Descending order: the conditional structure of e only involves
	// items before e's position in each (sorted) transaction, so every
	// itemset is enumerated exactly once.
	for e := bound - 1; e >= 0; e-- {
		if st.cf.Cancelled() {
			return
		}
		q := queues[e]
		// Reading the queue length is H-mine's support counting.
		if len(q) > 0 {
			st.met.Support(1)
		}
		if len(q) < st.minsup {
			if len(q) > 0 {
				st.met.Prune()
			}
			continue
		}
		var ts int64
		if root && st.tk != nil {
			ts = st.tk.Begin()
		}
		st.prefix = append(st.prefix, dataset.Item(e))
		st.emit(len(q))

		// Thread the child queues: for each hyper-link, every item at a
		// smaller position in the same transaction co-occurs with
		// prefix+e.
		var child [][]link
		for _, l := range q {
			t := st.db.Tx[l.tx]
			for k := int32(0); k < l.pos; k++ {
				it := t[k]
				if child == nil {
					child = make([][]link, e)
				}
				child[it] = append(child[it], link{tx: l.tx, pos: k})
			}
		}
		if child != nil {
			st.mineNode(child, e)
		}
		st.prefix = st.prefix[:len(st.prefix)-1]
		if root && st.tk != nil {
			st.tk.End(ts, "subtree", trace.CatKernel, int64(e))
		}
	}
}

func (st *state) emit(support int) {
	st.met.Emit()
	// The prefix is built in decreasing item order; report canonically
	// increasing.
	st.emitBuf = st.emitBuf[:0]
	for i := len(st.prefix) - 1; i >= 0; i-- {
		st.emitBuf = append(st.emitBuf, st.prefix[i])
	}
	st.collect.Collect(st.emitBuf, support)
}
