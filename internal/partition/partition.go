// Package partition mines frequent itemsets from FIMI files that do not
// fit in memory, using the two-pass divide-and-conquer of Savasere,
// Omiecinski & Navathe (SON) as cast onto secondary storage by Grahne &
// Zhu ("Mining Frequent Itemsets from Secondary Memory"): pass 1 streams
// the file in transaction chunks sized to a caller-supplied byte budget
// and mines each chunk — with any in-memory kernel, through the
// work-stealing pool of internal/parallel — for its locally-frequent
// itemsets at a support threshold scaled to the chunk's share of the
// database; the union of those local answers is a candidate superset of
// the global answer (an itemset below the scaled threshold in every chunk
// is below minSupport globally). Pass 2 re-streams the file and counts
// every candidate's exact global support vertically, on one goroutine:
// per chunk, one occurrence bit vector per trie item and one fused
// AND+popcount per trie node (recount.go), then filters to the true
// frequent set. Workers parallelise pass-1 mining only. The result is
// exactly the in-memory answer — the differential tests assert identity
// against every kernel — while the resident transaction data never
// exceeds one chunk.
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
	"os"
	"runtime"
	"strconv"
	"time"

	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/failpoint"
	"fpm/internal/fimi"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/parallel"
	"fpm/internal/trace"
)

// chunkDivisor is the fraction of the memory budget given to the resident
// chunk itself; the remainder is headroom for the mining kernel's working
// set (lexicographic clone, projected databases, occurrence lists —
// BenchmarkPartitionedVsInMemory measures LCM's full working set at ~6×
// the resident transaction bytes) and the candidate trie, so the whole
// run stays within the budget the caller configured (the out-of-core
// benchmark asserts peak heap growth < 2× budget). Pass 2 holds no
// kernel working set; its recount vectors take at most one more share.
const chunkDivisor = 8

// Config parameterises one out-of-core run.
type Config struct {
	// MemBudget is the target resident-set bound in bytes for transaction
	// data plus mining working set. Must be positive. The chunk itself is
	// capped at MemBudget/8 (see chunkDivisor).
	MemBudget int64
	// Workers is the pass-1 mining parallelism: 1 mines each chunk
	// sequentially, other values run the work-stealing pool per chunk
	// (<= 0 means GOMAXPROCS). Chunks are processed one at a time either
	// way — concurrency never holds more than one chunk resident. Pass 2
	// always counts on the caller's goroutine.
	Workers int
	// Cutoff is the work-stealing task-spawn cutoff passed through to the
	// pool; <= 0 selects the pool's default.
	Cutoff int
	// Metrics, when non-nil, receives the two-pass counters (chunks
	// mined, candidates generated/surviving, bytes streamed, pass times)
	// plus the scheduler counters of every per-chunk pool run. Nil
	// disables recording.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives the run's span timeline: a "partition"
	// phase track (sizing scan, one span per pass-1 chunk carrying its new
	// candidate count, the pass-2 recount) plus the per-worker scheduler
	// tracks when Workers != 1. Nil disables tracing.
	Trace *trace.Recorder
	// Cancel, when non-nil, aborts the run cooperatively: it is polled
	// before every pass-1 and pass-2 chunk, and drivers that inject the
	// same flag into the kernel factory (and the pool, via Workers) get
	// node-granular latency inside a chunk as well. A cancelled Mine
	// returns Cancel.Err(); any checkpoint sidecar is left in place, so the
	// run can be resumed.
	Cancel *cancel.Flag
	// Checkpoint, when non-empty, is the sidecar path where progress is
	// persisted after every chunk (atomic temp-file + rename; see
	// checkpoint.go). Writes are best-effort: a failed write is counted in
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
// file must be seekable (it is streamed three times: a parse-free sizing
// scan, the chunk-mining pass and the recount pass).
func Mine(path string, factory func() mine.Splitter, minSupport int, cfg Config, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if cfg.MemBudget <= 0 {
		return ErrBadBudget
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := cfg.Metrics
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
	// resume with a different worker count — parallelism changes neither
	// the result nor the chunk boundaries.
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

	// All partition-phase spans land on one track; a nil cfg.Trace yields a
	// nil track and every span call below degrades to a nil-check.
	ptk := cfg.Trace.NewTrack("partition")

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

	// Pass 1b — chunk mining into the candidate union. One chunk is
	// resident at a time; the pool (or the sequential miner) is reused
	// across chunks. A resumed checkpoint restores the trie and skips the
	// transactions of every completed chunk; ReadChunksFrom reproduces the
	// remaining chunk boundaries exactly.
	var miner mine.Miner
	if workers == 1 {
		miner = factory()
	} else {
		popts := []parallel.Option{parallel.WithMetrics(rec)}
		if cfg.Cutoff > 0 {
			popts = append(popts, parallel.WithCutoff(cfg.Cutoff))
		}
		if cfg.Trace != nil {
			popts = append(popts, parallel.WithTrace(cfg.Trace))
		}
		if cfg.Cancel != nil {
			popts = append(popts, parallel.WithCancel(cfg.Cancel))
		}
		miner = parallel.New(workers, factory, popts...)
	}
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
	tc := &trieCollector{tr: tr}
	if !pass1Done {
		if err := rewind(f); err != nil {
			return err
		}
		cr = &countingReader{r: f}
		err = fimi.ReadChunksFrom(cr, chunkBudget, skipTx, func(chunk *dataset.DB) error {
			if err := cfg.Cancel.Err(); err != nil {
				return err
			}
			localSup := scaledSupport(minSupport, chunk.Len(), totalTx)
			// Threshold collapse: at localSup 1 (and a real global support —
			// minSupport 1 means the caller asked for full enumeration) the
			// chunk's locally-frequent set is all subsets of its transactions.
			// Refuse when that would explode rather than grind exponentially.
			if localSup == 1 && minSupport > 1 {
				if est := enumBound(chunk); est > maxChunkEnum {
					return fmt.Errorf("%w: a %d-transaction chunk scales the local support floor to 1, "+
						"and support-1 mining would enumerate ~%.3g itemsets there; "+
						"chunks need more than totalTx/minSupport = %d transactions — raise MemBudget",
						ErrBudgetTooSmall, chunk.Len(), est, totalTx/minSupport)
				}
			}
			tc.added = 0
			cts := ptk.Begin()
			if err := mineChunk(miner, chunk, localSup, tc); err != nil {
				return err
			}
			ptk.End(cts, "chunk "+strconv.Itoa(chunkIdx), trace.CatChunk, int64(tc.added))
			chunkIdx++
			txDone += chunk.Len()
			rec.ChunkMined()
			rec.AddCandidates(uint64(tc.added))
			if cfg.Checkpoint != "" {
				saveCkpt(Checkpoint{TotalTx: totalTx, Phase: 1,
					ChunksDone: chunkIdx, TxConsumed: txDone, trie: tr.Seal()})
			}
			return nil
		})
		rec.AddStreamedBytes(1, cr.n)
		rec.AddPassTime(1, time.Since(t0))
		if err != nil {
			return err
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
		removeCheckpoint(cfg.Checkpoint)
		return nil
	}

	// Pass 2 — exact global recount: re-stream the file and count every
	// candidate vertically, chunk by chunk (recount.go), on this goroutine
	// into one count array indexed by candidate id. Checkpoints persist the
	// partial counts per chunk; a phase-2 resume restores them and skips
	// the counted transactions.
	t1 := time.Now()
	p2ts := ptk.Begin()
	counts := make([]uint32, sl.Candidates())
	p2skip, p2done := 0, 0
	if resumed != nil && resumed.Phase >= 2 {
		copy(counts, resumed.counts)
		p2skip, p2done = resumed.TxConsumed, resumed.TxConsumed
	}
	if err := rewind(f); err != nil {
		return err
	}
	vc := newVertical(sl, chunkBudget)
	cr = &countingReader{r: f}
	err = fimi.ReadChunksFrom(cr, chunkBudget, p2skip, func(chunk *dataset.DB) error {
		if err := cfg.Cancel.Err(); err != nil {
			return err
		}
		if err := failpoint.Hit(failpoint.PartitionRecountChunk); err != nil {
			return err
		}
		vc.Count(chunk.Tx, counts)
		p2done += chunk.Len()
		if cfg.Checkpoint != "" {
			saveCkpt(Checkpoint{TotalTx: totalTx, Phase: 2, ChunksDone: chunkIdx,
				TxConsumed: p2done, trie: sl, counts: counts})
		}
		return nil
	})
	rec.AddStreamedBytes(2, cr.n)
	if err != nil {
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

// mineChunk runs one pass-1 chunk mine with panic containment: a kernel
// panic (or the partition.chunk.mine failpoint standing in for one)
// surfaces as this chunk's error and aborts the run cleanly — the
// checkpoint written after the previous chunk stays valid, so the run is
// resumable past the failure.
func mineChunk(m mine.Miner, chunk *dataset.DB, minSupport int, c mine.Collector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("partition: chunk mine panicked: %v", r)
		}
	}()
	if err := failpoint.Hit(failpoint.PartitionChunkMine); err != nil {
		return err
	}
	return m.Mine(chunk, minSupport, c)
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

// trieCollector feeds locally-frequent itemsets into the candidate union;
// their items arrive ascending (the mine.Collector contract), as the trie
// requires. Local supports are discarded — only membership matters; pass
// 2 recounts exactly.
type trieCollector struct {
	tr    *trie
	added int // new candidates inserted by the current chunk
}

// Collect implements mine.Collector. It is only ever invoked from one
// goroutine at a time: sequential miners run on the caller's goroutine,
// and the parallel miner merges worker shards on the caller's goroutine
// after mining.
func (tc *trieCollector) Collect(items []dataset.Item, support int) {
	if tc.tr.Add(items) {
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
