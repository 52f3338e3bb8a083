package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/eclat"
	"fpm/internal/fimi"
	"fpm/internal/lcm"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/parallel"
)

// writeFileRaw writes literal file content (for malformed-input cases).
func writeFileRaw(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// writeTemp stores db as a FIMI file and returns its path.
func writeTemp(t *testing.T, db *dataset.DB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.dat")
	if err := fimi.WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	return path
}

// randomDB builds a small random normalized database.
func randomDB(seed int64, n, vocab int) *dataset.DB {
	rng := rand.New(rand.NewSource(seed))
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		var tr dataset.Transaction
		for it := dataset.Item(0); int(it) < vocab; it++ {
			if rng.Intn(4) == 0 {
				tr = append(tr, it)
			}
		}
		tx[i] = tr
	}
	db := dataset.New(tx)
	db.Normalize()
	return db
}

func lcmFactory() mine.Splitter { return lcm.New(lcm.Options{}) }

func TestMineMatchesInMemory(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := randomDB(seed, 120, 18)
		path := writeTemp(t, db)
		minsup := 6

		want := mine.ResultSet{}
		if err := lcmFactory().Mine(db, minsup, want); err != nil {
			t.Fatal(err)
		}

		for _, budget := range []int64{1 << 20, 4096, 600} {
			for _, workers := range []int{1, 3} {
				got := mine.ResultSet{}
				cfg := Config{MemBudget: budget, Pool: parallel.Options{Workers: workers}}
				if err := Mine(path, lcmFactory, minsup, cfg, got); err != nil {
					t.Fatalf("seed %d budget %d workers %d: %v", seed, budget, workers, err)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d budget %d workers %d: diverges (%d vs %d):\n%s",
						seed, budget, workers, len(got), len(want), want.Diff(got, 10))
				}
			}
		}
	}
}

// TestMineCanonicalOrder asserts the collector sees results in canonical
// (size, then lexicographic) order — the contract the CLI and the
// byte-identity acceptance check rely on.
func TestMineCanonicalOrder(t *testing.T) {
	db := randomDB(7, 150, 15)
	path := writeTemp(t, db)
	var sc mine.SliceCollector
	if err := Mine(path, lcmFactory, 5, Config{MemBudget: 2048, Pool: parallel.Options{Workers: 2}}, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Sets) < 10 {
		t.Fatalf("degenerate corpus: only %d sets", len(sc.Sets))
	}
	for i := 1; i < len(sc.Sets); i++ {
		if !mine.LessItems(sc.Sets[i-1].Items, sc.Sets[i].Items) {
			t.Fatalf("emission not canonical at %d: %v !< %v",
				i, sc.Sets[i-1].Items, sc.Sets[i].Items)
		}
	}
}

func TestMineErrors(t *testing.T) {
	db := randomDB(1, 10, 5)
	path := writeTemp(t, db)
	var sc mine.SliceCollector
	if err := Mine(path, lcmFactory, 0, Config{MemBudget: 1 << 20}, &sc); err == nil {
		t.Error("minSupport 0 accepted")
	}
	if err := Mine(path, lcmFactory, 1, Config{MemBudget: 0}, &sc); err != ErrBadBudget {
		t.Errorf("zero budget: err = %v, want ErrBadBudget", err)
	}
	if err := Mine(filepath.Join(t.TempDir(), "missing.dat"), lcmFactory, 1,
		Config{MemBudget: 1 << 20}, &sc); err == nil {
		t.Error("missing file accepted")
	}
	badPath := filepath.Join(t.TempDir(), "bad.dat")
	if err := writeFileRaw(badPath, "1 2\nnot numbers\n"); err != nil {
		t.Fatal(err)
	}
	if err := Mine(badPath, lcmFactory, 1, Config{MemBudget: 1 << 20}, &sc); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("parse error not surfaced with line: %v", err)
	}
}

// TestMineBudgetTooSmall pins the threshold-collapse guard: a budget
// yielding one-transaction chunks of long transactions must refuse with
// ErrBudgetTooSmall instead of enumerating 2^len subsets per transaction.
func TestMineBudgetTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tx := make([]dataset.Transaction, 80)
	for i := range tx {
		var tr dataset.Transaction
		for it := dataset.Item(0); it < 40; it++ {
			if rng.Intn(5) < 3 {
				tr = append(tr, it) // ~24 items per transaction
			}
		}
		tx[i] = tr
	}
	db := dataset.New(tx)
	db.Normalize()
	path := writeTemp(t, db)

	var sc mine.SliceCollector
	err := Mine(path, lcmFactory, 8, Config{MemBudget: 400}, &sc)
	if !errors.Is(err, ErrBudgetTooSmall) {
		t.Fatalf("tiny budget on long transactions: err = %v, want ErrBudgetTooSmall", err)
	}
	if !strings.Contains(err.Error(), "raise MemBudget") {
		t.Errorf("error does not tell the user the fix: %v", err)
	}

	// The same mining is fine once chunks are large enough for the scaled
	// threshold to stay above 1.
	sc.Sets = nil
	if err := Mine(path, lcmFactory, 8, Config{MemBudget: 1 << 20}, &sc); err != nil {
		t.Fatalf("ample budget: %v", err)
	}

	// minSupport 1 is a deliberate full enumeration, not a collapse: the
	// guard must not fire on short transactions.
	tiny := writeTemp(t, dataset.New([]dataset.Transaction{{0, 1, 2}, {1, 2}}))
	sc.Sets = nil
	if err := Mine(tiny, lcmFactory, 1, Config{MemBudget: 1}, &sc); err != nil {
		t.Fatalf("minsup=1 short transactions: %v", err)
	}
}

func TestMineEdgeCases(t *testing.T) {
	// Empty file: no transactions, no results, no error.
	empty := writeTemp(t, dataset.New(nil))
	var sc mine.SliceCollector
	if err := Mine(empty, lcmFactory, 1, Config{MemBudget: 1024}, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Sets) != 0 {
		t.Fatalf("empty file produced %d sets", len(sc.Sets))
	}

	// Support above every item's frequency: candidates exist in no chunk.
	db := randomDB(3, 20, 6)
	path := writeTemp(t, db)
	sc.Sets = nil
	if err := Mine(path, lcmFactory, db.Len()+1, Config{MemBudget: 512}, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Sets) != 0 {
		t.Fatalf("impossible support produced %d sets", len(sc.Sets))
	}

	// minSupport 1 on a tiny file: every subset of every transaction.
	tiny := writeTemp(t, dataset.New([]dataset.Transaction{{0, 1}, {1}}))
	sc.Sets = nil
	if err := Mine(tiny, lcmFactory, 1, Config{MemBudget: 1}, &sc); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, s := range sc.Sets {
		got[mine.Key(s.Items)] = s.Support
	}
	want := map[string]int{"0": 1, "1": 2, "0,1": 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("minsup=1 result %v, want %v", got, want)
	}
}

// TestMineRecordsMetrics checks the two-pass counters: chunk counts match
// the budget-implied partitioning, candidate counts bracket the result,
// and both passes stream the whole file.
func TestMineRecordsMetrics(t *testing.T) {
	db := randomDB(5, 100, 12)
	path := writeTemp(t, db)

	rec := metrics.NewRecorder()
	var sc mine.SliceCollector
	budget := int64(2000)
	if err := Mine(path, lcmFactory, 4, Config{MemBudget: budget,
		Pool: parallel.Options{Workers: 2, Metrics: rec}}, &sc); err != nil {
		t.Fatal(err)
	}
	pt := rec.Snapshot().Partition
	if pt == nil {
		t.Fatal("no partition section recorded")
	}
	if pt.Chunks < 2 {
		t.Fatalf("budget %d produced %d chunks, want several", budget, pt.Chunks)
	}
	if pt.CandidatesSurviving != uint64(len(sc.Sets)) {
		t.Fatalf("survivors %d, results %d", pt.CandidatesSurviving, len(sc.Sets))
	}
	if pt.CandidatesGenerated < pt.CandidatesSurviving {
		t.Fatalf("generated %d < surviving %d", pt.CandidatesGenerated, pt.CandidatesSurviving)
	}
	if pt.BytesPass2 == 0 || pt.BytesPass1 < 2*pt.BytesPass2 {
		// Pass 1 = sizing scan + mining stream = 2 full reads.
		t.Fatalf("streamed bytes inconsistent: pass1 %d, pass2 %d", pt.BytesPass1, pt.BytesPass2)
	}
	if pt.MemBudget != budget {
		t.Fatalf("mem budget %d, want %d", pt.MemBudget, budget)
	}
	if rec.Snapshot().Parallel == nil {
		t.Fatal("pooled chunk mining recorded no scheduler counters")
	}
}

// TestMineEclatPool runs a second kernel through the pooled path to guard
// against kernel-specific emission-order assumptions in the collector.
func TestMineEclatPool(t *testing.T) {
	db := randomDB(9, 140, 14)
	path := writeTemp(t, db)
	want := mine.ResultSet{}
	if err := eclat.New(eclat.Options{}).Mine(db, 5, want); err != nil {
		t.Fatal(err)
	}
	got := mine.ResultSet{}
	cfg := Config{MemBudget: 1500, Pool: parallel.Options{Workers: 4}}
	if err := Mine(path, func() mine.Splitter { return eclat.New(eclat.Options{}) }, 5, cfg, got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("eclat partitioned diverges:\n%s", want.Diff(got, 10))
	}
}

// TestMineBuildsKernelsOncePerRun: pass 1 mines every chunk on one pool
// session, so a multi-chunk run builds workers+2 kernels at most — one
// for the checkpoint signature, one for the pool's name and one per
// worker — however many chunks it mines.
func TestMineBuildsKernelsOncePerRun(t *testing.T) {
	db := randomDB(21, 400, 12)
	path := writeTemp(t, db)
	const workers = 2
	var built atomic.Int64
	factory := func() mine.Splitter {
		built.Add(1)
		return lcmFactory()
	}
	rec := metrics.NewRecorder()
	got := mine.ResultSet{}
	if err := Mine(path, factory, 40, Config{MemBudget: 48 << 10,
		Pool: parallel.Options{Workers: workers, Metrics: rec}}, got); err != nil {
		t.Fatal(err)
	}
	if chunks := rec.Snapshot().Partition.Chunks; chunks < 4 {
		t.Fatalf("%d chunks; the budget must force several", chunks)
	}
	if n := built.Load(); n > workers+2 {
		t.Fatalf("built %d kernels for %d chunks at %d workers, want at most %d",
			n, rec.Snapshot().Partition.Chunks, workers, workers+2)
	}
	want := mine.ResultSet{}
	if err := lcmFactory().Mine(db, 40, want); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("partitioned result diverges:\n%s", want.Diff(got, 10))
	}
}

// TestSplitBuffersKeepsThreshold: two workers split the pass-1 chunk
// budget between two buffers only while the halved chunks keep a SON
// threshold of at least minSplitSupport; below it they frame the chunks
// as one worker does. The answer is the in-memory one either way.
func TestSplitBuffersKeepsThreshold(t *testing.T) {
	db := randomDB(21, 400, 12)
	path := writeTemp(t, db)
	mineChunks := func(minsup, workers int) uint64 {
		t.Helper()
		rec := metrics.NewRecorder()
		got := mine.ResultSet{}
		if err := Mine(path, lcmFactory, minsup, Config{MemBudget: 48 << 10,
			Pool: parallel.Options{Workers: workers, Metrics: rec}}, got); err != nil {
			t.Fatal(err)
		}
		want := mine.ResultSet{}
		if err := lcmFactory().Mine(db, minsup, want); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("minsup %d, %d workers: partitioned result diverges:\n%s", minsup, workers, want.Diff(got, 10))
		}
		return rec.Snapshot().Partition.Chunks
	}
	// One worker's chunks hold about 100 of the 400 rows. At support 40
	// half a chunk keeps a threshold of 5; at support 12 it would drop to 2.
	if one, two := mineChunks(40, 1), mineChunks(40, 2); two < 2*one-1 {
		t.Errorf("support 40: %d chunks at two workers, %d at one; want the budget split in two", two, one)
	}
	if one, two := mineChunks(12, 1), mineChunks(12, 2); two != one {
		t.Errorf("support 12: %d chunks at two workers, %d at one; want no split", two, one)
	}
}
