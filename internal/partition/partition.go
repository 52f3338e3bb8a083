// Package partition mines frequent itemsets from FIMI files that do not
// fit in memory, using the two-pass divide-and-conquer of Savasere,
// Omiecinski & Navathe (SON) as cast onto secondary storage by Grahne &
// Zhu ("Mining Frequent Itemsets from Secondary Memory"): pass 1 streams
// the file in transaction chunks sized to a caller-supplied byte budget
// and mines each chunk — with any in-memory kernel — for its
// locally-frequent itemsets at a support threshold scaled to the chunk's
// share of the database; the union of those local answers is a candidate
// superset of the global answer (an itemset below the scaled threshold in
// every chunk is below minSupport globally). Pass 1 runs one
// work-stealing pool session (internal/parallel) for the whole run: the
// budget is split into up to one chunk buffer per worker — as far as the
// chunks keep a SON threshold of minSplitSupport — and every chunk is a
// root task of the session, which normalizes the chunk, compacts its
// alphabet and mines it on a worker: up to Workers chunks are mined at
// once while the calling goroutine parses the next into a free buffer.
// Pass 2 re-streams the file and counts every candidate's exact global
// support vertically on the same session: every chunk is a root task that
// builds one occurrence bit vector per trie item and runs one fused
// AND+popcount per trie node (recount.go) into the chunk's own counts,
// which the calling goroutine adds up in file order while it parses the
// chunks after; the counts are then filtered to the true frequent set.
// The result is exactly the in-memory answer — the
// differential tests assert identity against every kernel — while the
// resident transaction data never exceeds the budget's chunk share.
//
// In the source paper's vocabulary this is pattern P6 (tiling) applied at
// the coarsest grain: the disk-resident database is tiled into
// memory-budget-sized blocks, each block is mined while it is hot, and a
// second sweep reconciles the per-tile answers globally, exactly as the
// cache-level tiling of LCM's occurrence deliver reconciles per-tile
// counters.
package partition

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"time"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/failpoint"
	"fpm/internal/fimi"
	"fpm/internal/mine"
	"fpm/internal/parallel"
	"fpm/internal/trace"
)

// chunkDivisor is the fraction of the memory budget given to resident
// chunk data; the remainder is headroom for the mining kernels' working
// set (lexicographic clone, projected databases, occurrence lists —
// BenchmarkPartitionedVsInMemory measures LCM's full working set at ~6×
// the resident transaction bytes) and the candidate trie, so the whole
// run stays within the budget the caller configured (the out-of-core
// benchmark asserts peak heap growth < 2× budget at one and two workers).
// Pass 1 splits the share between up to one chunk buffer per worker, each
// chunk carrying its own kernel working set. Pass 2 holds no kernel working
// set: its Workers+1 chunk buffers split two shares, and the workers'
// recount vectors split a third.
const chunkDivisor = 8

// Config parameterises one out-of-core run.
type Config struct {
	// MemBudget is the target resident-set bound in bytes for transaction
	// data plus mining working set. Must be positive. Each pass-1 chunk is
	// capped at MemBudget/(8·B), for the B ≤ Workers buffers splitBuffers
	// picks, and each pass-2 chunk at 2·MemBudget/(8·(Workers+1)) (see
	// chunkDivisor).
	MemBudget int64
	// Pool configures the work-stealing pool both passes run on, and its
	// fields reach the rest of the run too:
	//   - Workers (<= 0 means GOMAXPROCS) bounds the resident chunks: at
	//     most Workers chunks are mined at once on one session, with idle
	//     workers stealing subtrees of any chunk, as far as splitting the
	//     budget keeps the chunks' SON threshold at minSplitSupport, and
	//     at most Workers pass-2 chunks are counted at once. Chunk
	//     boundaries therefore depend on Workers; the answer does not.
	//   - Metrics, when non-nil, receives the two-pass counters (chunks
	//     mined, candidates generated/surviving, bytes streamed, pass
	//     times) plus, when Workers > 1, the scheduler's counters, where
	//     every pass-1 and pass-2 chunk counts as a spawned task.
	//   - Trace, when non-nil, receives a "partition" phase track (sizing
	//     scan, one span per pass-1 chunk's merge into the candidate union
	//     carrying its new candidate count, the pass-2 recount) plus, when
	//     Workers > 1, the per-worker scheduler tracks.
	//   - Cancel, when non-nil, aborts the run cooperatively: it is polled
	//     before every pass-1 and pass-2 chunk and by the pool, and drivers
	//     that inject the same flag into the kernel factory get
	//     node-granular latency inside a chunk as well. A cancelled Mine
	//     returns Cancel.Err(); any checkpoint sidecar is left in place, so
	//     the run can be resumed.
	//   - Ctx is not used: arm Cancel from a context with
	//     cancel.FromContext, so the passes see it too.
	Pool parallel.Options
	// Checkpoint, when non-empty, is the sidecar path where progress is
	// persisted after every chunk (atomic temp-file + rename; see
	// checkpoint.go). A checkpoint records the completed prefix of the
	// file; its trie may also hold candidates of later chunks, which is
	// sound because pass 2 recounts every candidate. Writes are
	// best-effort: a failed write is counted in
	// metrics and the mine continues with the previous sidecar intact. The
	// sidecar is removed when Mine completes successfully.
	Checkpoint string
	// Resume, when true (and Checkpoint is set), loads the sidecar and
	// skips the work it records, provided its input and configuration
	// identity match this run; a missing, corrupt or mismatched sidecar
	// silently falls back to a fresh run (the mine is then merely slower,
	// never wrong).
	Resume bool
}

// ErrBadBudget is returned when Config.MemBudget is not positive.
var ErrBadBudget = errors.New("partition: memory budget must be positive")

// ErrBudgetTooSmall is returned (wrapped, with the numbers) when the
// budget yields chunks so small that SON's scaled support threshold
// collapses to 1 and mining a chunk would enumerate every subset of its
// transactions — the exponential failure mode described in DESIGN.md §9.
// Erroring out beats silently grinding through 2^len candidates per
// transaction; the fix is a larger MemBudget (chunks need more than
// totalTx/minSupport transactions).
var ErrBudgetTooSmall = errors.New("partition: memory budget too small for this support level")

// maxChunkEnum caps the estimated support-1 enumeration size (sum of
// 2^len over the chunk's transactions) a threshold-1 chunk may incur
// before Mine refuses with ErrBudgetTooSmall. Short-transaction chunks
// stay exact and cheap below the cap.
const maxChunkEnum = 1 << 21

// enumBound estimates how many itemsets support-1 mining of chunk can
// emit: every subset of every transaction.
func enumBound(chunk *dataset.DB) float64 {
	var est float64
	for _, tx := range chunk.Tx {
		est += float64(uint64(1) << uint(min(len(tx), 63)))
	}
	return est
}

// Mine runs the two-pass out-of-core algorithm over the FIMI file at
// path, mining chunks with kernels from factory, and reports
// every itemset with exact global support >= minSupport to c in canonical
// order (mine.SortCanonical), each exactly once. The
// file must be seekable: it is streamed three times (a parse-free sizing
// scan, the chunk-mining pass and the recount pass), and with more than
// one worker splitBuffers also reads the first pass-1 chunk before pass 1
// to size the chunk buffers. The streamed-bytes counters leave that probe
// out.
func Mine(path string, factory func() mine.Splitter, minSupport int, cfg Config, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if cfg.MemBudget <= 0 {
		return ErrBadBudget
	}
	workers := cfg.Pool.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := cfg.Pool.Metrics
	rec.SetMemBudget(cfg.MemBudget)
	chunkBudget := cfg.MemBudget / chunkDivisor
	if chunkBudget < 1 {
		chunkBudget = 1
	}

	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		// The telemetry progress endpoint derives completion fractions
		// from bytes streamed vs. file size.
		rec.SetInputBytes(fi.Size())
	}

	// Checkpoint identity and resume candidate. The kernel signature comes
	// from the sequential factory (never the pool wrapper), so a run may
	// resume with a different worker count: that re-frames the chunks
	// after the checkpointed prefix, and SON holds for any framing.
	sig := factory().Name()
	var inSize int64
	var inHash uint64
	if cfg.Checkpoint != "" {
		id, _, err := durable.FileIdentity(path, false)
		if err != nil {
			return fmt.Errorf("partition: checkpoint: %w", err)
		}
		inSize, inHash = id.Size, id.Hash
	}
	var resumed *Checkpoint
	if cfg.Resume && cfg.Checkpoint != "" {
		if ck, lerr := LoadCheckpoint(cfg.Checkpoint); lerr == nil &&
			ck.InputSize == inSize && ck.InputHash == inHash &&
			ck.Kernel == sig && ck.MinSupport == minSupport && ck.MemBudget == cfg.MemBudget {
			resumed = ck
		}
	}
	saveCkpt := func(ck Checkpoint) {
		if cfg.Checkpoint == "" {
			return
		}
		ck.InputSize, ck.InputHash = inSize, inHash
		ck.Kernel, ck.MinSupport, ck.MemBudget = sig, minSupport, cfg.MemBudget
		if err := SaveCheckpoint(cfg.Checkpoint, &ck); err != nil {
			rec.CheckpointFailed()
		} else {
			rec.CheckpointWritten()
		}
	}

	// All partition-phase spans land on one track; a nil cfg.Pool.Trace
	// yields a nil track and every span call below degrades to a nil-check.
	ptk := cfg.Pool.Trace.NewTrack("partition")

	// Pass 1a — parse-free sizing scan: SON's per-chunk support scaling
	// needs the total transaction count before the first chunk is mined.
	// It also cross-checks a resumed checkpoint: a transaction count drift
	// means the input changed despite the size/hash match, so the
	// checkpoint is discarded.
	t0 := time.Now()
	ts := ptk.Begin()
	cr := &countingReader{r: f}
	totalTx, err := fimi.CountTransactions(cr)
	ptk.End(ts, "sizing scan", trace.CatPhase, cr.n)
	rec.AddStreamedBytes(1, cr.n)
	if err != nil {
		return err
	}
	if totalTx == 0 {
		rec.AddPassTime(1, time.Since(t0))
		removeCheckpoint(cfg.Checkpoint)
		return nil
	}
	if resumed != nil && resumed.TotalTx != totalTx {
		resumed = nil
	}

	// Pass 1b — chunk mining into the candidate union, on the run's one
	// pool session. At most workers chunk buffers are resident, each
	// parsed into in place and recycled once its chunk is mined; the
	// budget is split between them (splitBuffers), so up to that many
	// chunks are mined at once while the reader fills a free buffer.
	// Chunks are merged into the trie on this goroutine as they finish,
	// and every checkpoint records the completed prefix of the file. A
	// resumed checkpoint restores the trie and skips the transactions of
	// that prefix; SON holds for any partition of the rows, so the chunks
	// after it may be framed for a different worker count than the run
	// that wrote it.
	tr := newTrie()
	var sl *sealed
	skipTx, chunkIdx, txDone := 0, 0, 0
	pass1Done := false
	if resumed != nil {
		chunkIdx = resumed.ChunksDone
		if resumed.Phase >= 2 {
			// Pass 1 finished before the checkpoint: the sealed trie is
			// used directly, read-only, for the rest of the run.
			pass1Done = true
			sl = resumed.trie
		} else {
			// Pass 1 must keep inserting: rebuild the mutable form.
			tr = resumed.trie.unseal()
			skipTx, txDone = resumed.TxConsumed, resumed.TxConsumed
		}
		for i := 0; i < resumed.ChunksDone; i++ {
			rec.ChunkSkipped()
		}
	}
	po := cfg.Pool
	po.Workers, po.Ctx = workers, nil
	if workers == 1 {
		// A one-worker session schedules nothing: it reports, like the
		// sequential kernel, only the kernel's own counters and spans.
		po.Metrics, po.Trace = nil, nil
	}
	sess := parallel.New(po, factory).Start()
	// finish ends the session, which both passes run on: a failed run
	// aborts it first, so queued tasks are dropped, and the session's own
	// error (a failed task, or the cancellation cause) is returned when the
	// run has none.
	finish := func(err error) error {
		if err != nil {
			sess.Abort(err)
		}
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if !pass1Done {
		buffers := 1
		if workers > 1 {
			if buffers, err = splitBuffers(f, chunkBudget, skipTx, workers, minSupport, totalTx); err != nil {
				return finish(err)
			}
		}
		if err := rewind(f); err != nil {
			return finish(err)
		}
		tc := &trieCollector{tr: tr}
		type inflight struct {
			root   *parallel.Root // nil once merged
			buf    *fimi.Chunk    // the chunk's buffer, until it is mined
			orig   []dataset.Item // the chunk's local item → original item
			idx    int            // the chunk's index in the file
			tx     int            // the chunk's transactions
			merged bool
		}
		var queue []*inflight // submitted chunks past the checkpointed prefix, oldest first
		var free []*fimi.Chunk
		var freeOrig [][]dataset.Item
		// Chunks are normalized and compacted by their root task, on a
		// worker: the reader only parses. At most workers root tasks run
		// at once, so one compactor each never leaves a task waiting.
		compactors := make(chan *compactor, workers)
		for i := 0; i < workers; i++ {
			compactors <- new(compactor)
		}
		bufs, submitted := 0, chunkIdx
		// Every root in flight holds a buffer, so a slot per buffer keeps
		// the workers' completion sends from blocking.
		mined := make(chan *parallel.Root, buffers)
		// await blocks until some submitted chunk is mined, merges its
		// itemsets into the trie and recycles its buffer. Chunks finish in
		// any order, and the trie takes them as they come, so it may hold
		// candidates of chunks past the completed prefix; a checkpoint,
		// written whenever that prefix grows, records only the prefix
		// (DESIGN §11). Once the session has failed, await returns its
		// error at once.
		var sessErr error // the session's failure, once await has seen it
		await := func() error {
			if sessErr != nil {
				return sessErr
			}
			r := <-mined
			if err := r.Wait(); err != nil {
				sessErr = err
				return err
			}
			for _, j := range queue {
				if j.root != r {
					continue
				}
				cts := ptk.Begin()
				tc.added, tc.orig = 0, j.orig
				r.Emit(tc)
				rec.ChunkMined()
				rec.AddCandidates(uint64(tc.added))
				ptk.End(cts, "chunk "+strconv.Itoa(j.idx), trace.CatChunk, int64(tc.added))
				free, freeOrig = append(free, j.buf), append(freeOrig, j.orig)
				j.root, j.buf, j.orig, j.merged = nil, nil, nil, true
			}
			grown := false
			for len(queue) > 0 && queue[0].merged {
				chunkIdx++
				txDone += queue[0].tx
				queue = queue[:copy(queue, queue[1:])]
				grown = true
			}
			if grown && cfg.Checkpoint != "" {
				saveCkpt(Checkpoint{TotalTx: totalTx, Phase: 1,
					ChunksDone: chunkIdx, TxConsumed: txDone, trie: tr.Seal()})
			}
			return nil
		}
		next := func() (*fimi.Chunk, error) {
			if len(free) == 0 && bufs < buffers {
				bufs++
				return new(fimi.Chunk), nil
			}
			if len(free) == 0 {
				if err := await(); err != nil {
					return nil, err
				}
			}
			c := free[len(free)-1]
			free = free[:len(free)-1]
			return c, nil
		}
		cr = &countingReader{r: f}
		err = fimi.ReadChunksInto(cr, chunkBudget/int64(buffers), skipTx, next, func(c *fimi.Chunk) error {
			if err := cfg.Pool.Cancel.Err(); err != nil {
				return err
			}
			chunk := &c.DB
			localSup := scaledSupport(minSupport, chunk.Len(), totalTx)
			if err := failpoint.Hit(failpoint.PartitionChunkMine); err != nil {
				return err
			}
			j := &inflight{buf: c, idx: submitted, tx: chunk.Len()}
			submitted++
			if n := len(freeOrig); n > 0 {
				j.orig, freeOrig = freeOrig[n-1][:0], freeOrig[:n-1]
			}
			j.root = sess.Submit(chunk.Weight(), func(k mine.Splitter, col mine.Collector, sp mine.Spawner) error {
				c.Normalize()
				if err := checkCollapse(chunk, localSup, minSupport, totalTx); err != nil {
					return err
				}
				cp := <-compactors
				j.orig = cp.compactAlphabet(chunk, j.orig)
				compactors <- cp
				return k.MineSplit(chunk, localSup, col, sp)
			}, mined)
			queue = append(queue, j)
			return nil
		})
		// Merge every chunk already handed to the pool, also after a read
		// error or a refused chunk: the checkpoint then covers all the work
		// mined. A failed or cancelled session fails the first await.
		for len(queue) > 0 {
			if aerr := await(); aerr != nil {
				if err == nil {
					err = aerr
				}
				break
			}
		}
		rec.AddStreamedBytes(1, cr.n)
		rec.AddPassTime(1, time.Since(t0))
		if err != nil {
			return finish(err)
		}
		// Pass 1 is over: no more inserts. Flatten the candidate union into
		// the sealed arena form (P3+P4) that pass 2's vertical recount and
		// the remaining checkpoints run against, and drop the mutable trie.
		sts := ptk.Begin()
		sl = tr.Seal()
		tr, tc.tr = nil, nil
		ptk.End(sts, "seal trie", trace.CatPhase, int64(sl.Candidates()))
	}
	if sl.Candidates() == 0 {
		if err := finish(nil); err != nil {
			return err
		}
		removeCheckpoint(cfg.Checkpoint)
		return nil
	}

	// Pass 2 — exact global recount: re-stream the file and count every
	// candidate vertically (recount.go). Every chunk is a root task of the
	// same session, which normalizes it and counts it with its worker's
	// vertical into the chunk's own count array; this goroutine parses the
	// next chunk meanwhile, and adds each chunk's counts into counts in
	// file order. Checkpoints persist the counts of the prefix added so
	// far; a phase-2 resume restores them and skips the counted
	// transactions.
	t1 := time.Now()
	p2ts := ptk.Begin()
	counts := make([]uint32, sl.Candidates())
	p2skip, p2done := 0, 0
	if resumed != nil && resumed.Phase >= 2 {
		copy(counts, resumed.counts)
		p2skip, p2done = resumed.TxConsumed, resumed.TxConsumed
	}
	if err := rewind(f); err != nil {
		return finish(err)
	}
	// Pass 2 holds three chunk shares, whatever workers is: workers+1
	// buffers split two of them, so one worker counts a chunk while the
	// next is parsed, and the workers' verticals split the third.
	p2bufs := workers + 1
	verticals := make(chan *vertical, workers)
	for i := 0; i < workers; i++ {
		verticals <- newVertical(sl, chunkBudget/int64(workers))
	}
	type counting struct {
		root   *parallel.Root
		buf    *fimi.Chunk
		counts []uint32 // the chunk's own counts, zero when recycled
		tx     int
	}
	var queue []counting // submitted chunks past the counted prefix, oldest first
	var free []*fimi.Chunk
	var freeCounts [][]uint32
	bufs := 0
	// add waits for the oldest submitted chunk to be counted, adds its
	// counts into counts, recycles its buffer and count array and
	// checkpoints the prefix it completes.
	add := func() error {
		j := queue[0]
		if err := j.root.Wait(); err != nil {
			return err
		}
		queue = queue[:copy(queue, queue[1:])]
		for i, n := range j.counts {
			counts[i] += n
			j.counts[i] = 0
		}
		p2done += j.tx
		free, freeCounts = append(free, j.buf), append(freeCounts, j.counts)
		if cfg.Checkpoint != "" {
			saveCkpt(Checkpoint{TotalTx: totalTx, Phase: 2, ChunksDone: chunkIdx,
				TxConsumed: p2done, trie: sl, counts: counts})
		}
		return nil
	}
	cr = &countingReader{r: f}
	err = fimi.ReadChunksInto(cr, 2*chunkBudget/int64(p2bufs), p2skip,
		func() (*fimi.Chunk, error) {
			if len(free) == 0 && bufs < p2bufs {
				bufs++
				freeCounts = append(freeCounts, make([]uint32, len(counts)))
				return new(fimi.Chunk), nil
			}
			if len(free) == 0 {
				if err := add(); err != nil {
					return nil, err
				}
			}
			c := free[len(free)-1]
			free = free[:len(free)-1]
			return c, nil
		},
		func(c *fimi.Chunk) error {
			if err := cfg.Pool.Cancel.Err(); err != nil {
				return err
			}
			if err := failpoint.Hit(failpoint.PartitionRecountChunk); err != nil {
				return err
			}
			tx, n := c.DB.Len(), len(freeCounts)
			cc := freeCounts[n-1]
			freeCounts = freeCounts[:n-1]
			r := sess.Submit(c.DB.Weight(), func(mine.Splitter, mine.Collector, mine.Spawner) error {
				c.Normalize()
				vc := <-verticals
				vc.Count(c.DB.Tx, cc)
				verticals <- vc
				return nil
			}, nil)
			queue = append(queue, counting{root: r, buf: c, counts: cc, tx: tx})
			return nil
		})
	// Add every chunk already handed to the pool, also after a read error
	// or a refused chunk, so the checkpoint covers all the counting done.
	for len(queue) > 0 {
		if aerr := add(); aerr != nil {
			if err == nil {
				err = aerr
			}
			break
		}
	}
	rec.AddStreamedBytes(2, cr.n)
	if err = finish(err); err != nil {
		rec.AddPassTime(2, time.Since(t1))
		return err
	}

	sets := sl.Emit(counts, minSupport, nil)
	mine.SortCanonical(sets)
	rec.AddSurvivors(uint64(len(sets)))
	rec.AddPassTime(2, time.Since(t1))
	ptk.End(p2ts, "pass 2 recount", trace.CatPhase, cr.n)
	removeCheckpoint(cfg.Checkpoint)
	for _, s := range sets {
		c.Collect(s.Items, s.Support)
	}
	return nil
}

// minSplitSupport is the smallest SON threshold splitting the chunk
// budget between pass-1 buffers may leave a chunk with. Collapse is not a
// cliff at threshold 1: on bench's small mine-ooc corpus (4,000 Zipf
// documents, support 120), chunks at threshold 3 let a few repeated long
// documents make every subset locally frequent — 134,000 candidates for a
// 195-itemset answer — where threshold 4 and up stay within 8× of it.
const minSplitSupport = 4

// errProbed stops splitBuffers' read after the first chunk.
var errProbed = errors.New("partition: first chunk probed")

// splitBuffers picks how many pass-1 chunk buffers, at most workers, share
// the chunk budget. Each buffer halves (or thirds, …) the chunks and with
// them their SON threshold, so the split goes only as far as keeps the
// threshold at minSplitSupport or more. The first chunk, framed for
// workers buffers, measures it; a file whose unsplit chunks are already
// below it is read with one buffer, as with one worker. f is left at an
// unspecified offset.
func splitBuffers(f *os.File, chunkBudget int64, skipTx, workers, minSupport, totalTx int) (int, error) {
	if err := rewind(f); err != nil {
		return 0, err
	}
	var c fimi.Chunk
	n := 0
	err := fimi.ReadChunksInto(f, chunkBudget/int64(workers), skipTx,
		func() (*fimi.Chunk, error) { return &c, nil },
		func(c *fimi.Chunk) error { n = c.DB.Len(); return errProbed })
	if err != nil && !errors.Is(err, errProbed) {
		return 0, err
	}
	// The threshold scales with the chunk's rows, so b buffers give about
	// minSupport·n·workers/(b·totalTx).
	b := int(int64(minSupport) * int64(n) * int64(workers) / (int64(minSplitSupport) * int64(totalTx)))
	return max(1, min(workers, b)), nil
}

// checkCollapse guards against threshold collapse: at localSup 1 (and a
// real global support — minSupport 1 means the caller asked for full
// enumeration) the chunk's locally-frequent set is all subsets of its
// transactions. It refuses when that would explode rather than grind
// exponentially.
func checkCollapse(chunk *dataset.DB, localSup, minSupport, totalTx int) error {
	if localSup > 1 || minSupport == 1 {
		return nil
	}
	if est := enumBound(chunk); est > maxChunkEnum {
		return fmt.Errorf("%w: a %d-transaction chunk scales the local support floor to 1, "+
			"and support-1 mining would enumerate ~%.3g itemsets there; "+
			"chunks need more than totalTx/minSupport = %d transactions — raise MemBudget",
			ErrBudgetTooSmall, chunk.Len(), est, totalTx/minSupport)
	}
	return nil
}

// scaledSupport is the SON local threshold for a chunk of chunkTx
// transactions out of totalTx: ceil(minSupport * chunkTx / totalTx),
// floored at 1. Soundness: if an itemset's local support is below this in
// every chunk i, it is strictly below minSupport*n_i/n there, and summing
// over chunks bounds its global support strictly below minSupport — so no
// globally-frequent itemset can be missed.
func scaledSupport(minSupport, chunkTx, totalTx int) int {
	s := (int64(minSupport)*int64(chunkTx) + int64(totalTx) - 1) / int64(totalTx)
	if s < 1 {
		return 1
	}
	return int(s)
}

// compactAlphabet relabels chunk's items in place to 0..d-1, in
// ascending order of their original ids, and returns the original id of
// each local one, appended to orig. Kernels size per-item state by
// NumItems, so a chunk of a file with a large alphabet then pays for the
// d items it holds, not for the largest id in the file; halving the chunk
// no longer doubles that cost per file. The relabel is monotonic, so the
// transactions stay sorted and a mined itemset maps back item by item to
// an ascending itemset. cp's scratch grows to the largest id seen.
func (cp *compactor) compactAlphabet(chunk *dataset.DB, orig []dataset.Item) []dataset.Item {
	if n := chunk.NumItems; len(cp.local) < n {
		cp.local = make([]dataset.Item, n)
		cp.seen = make([]uint64, (n+63)/64)
	}
	for _, t := range chunk.Tx {
		for _, it := range t {
			cp.seen[it/64] |= 1 << (it % 64)
		}
	}
	// Walking the bitmap lists the items ascending and clears it.
	for w, bitsw := range cp.seen[:(chunk.NumItems+63)/64] {
		for ; bitsw != 0; bitsw &= bitsw - 1 {
			it := dataset.Item(w*64 + bits.TrailingZeros64(bitsw))
			cp.local[it] = dataset.Item(len(orig))
			orig = append(orig, it)
		}
		cp.seen[w] = 0
	}
	for _, t := range chunk.Tx {
		for i, it := range t {
			t[i] = cp.local[it]
		}
	}
	chunk.NumItems = len(orig)
	return orig
}

// compactor is compactAlphabet's scratch, indexed by original item id:
// a bitmap of the chunk's items, all zero between calls, and each item's
// local id.
type compactor struct {
	seen  []uint64
	local []dataset.Item
}

// trieCollector feeds locally-frequent itemsets into the candidate union,
// mapping each item of a chunk's compacted alphabet back to its original
// id; the items stay ascending (the mine.Collector contract), as the trie
// requires. Local supports are discarded — only membership matters; pass
// 2 recounts exactly.
type trieCollector struct {
	tr    *trie
	orig  []dataset.Item // local → original item of the chunk being merged
	buf   []dataset.Item // the mapped itemset
	added int            // new candidates inserted by the current chunk
}

// Collect implements mine.Collector. Pass 1 merges every chunk's shards
// on the goroutine that parses the chunks, so it is only ever invoked from
// one goroutine.
func (tc *trieCollector) Collect(items []dataset.Item, support int) {
	tc.buf = tc.buf[:0]
	for _, it := range items {
		tc.buf = append(tc.buf, tc.orig[it])
	}
	if tc.tr.Add(tc.buf) {
		tc.added++
	}
}

// rewind seeks the file back to the start for the next pass.
func rewind(f *os.File) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	return nil
}

// countingReader counts the bytes drawn from the underlying stream, for
// the bytes-streamed-per-pass counters.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
