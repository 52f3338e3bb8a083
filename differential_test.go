package fpm

// Differential property test: on randomized corpora spanning the density /
// skew / support space, every kernel (with and without its applicable
// tuning patterns), the brute-force oracle, and the parallel miner (both
// worker counts, both merge paths) must produce the identical frequent
// itemset set. This is the strongest correctness net in the repository: the
// tuning patterns are pure performance transformations, so ANY divergence
// between configurations is a bug.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"fpm/internal/fimi"
	"fpm/internal/kernel"
	"fpm/internal/mine"
)

// diffCase is one randomized corpus plus its mining support.
type diffCase struct {
	name   string
	db     *DB
	minsup int
	// parAlgo rotates which kernel the parallel runs exercise, so across
	// the suite all of lcm/eclat/fpgrowth go through the scheduler.
	parAlgo Algorithm
}

// diffCases derives n corpora from a fixed seed. Half are Quest-style
// (sparse, market-basket), half Zipf-topic corpora (dense head, clustered);
// density, skew and relative support vary per case.
func diffCases(n int) []diffCase {
	rng := rand.New(rand.NewSource(20260806))
	parAlgos := []Algorithm{LCM, Eclat, FPGrowth}
	cases := make([]diffCase, 0, n)
	for i := 0; i < n; i++ {
		var db *DB
		var kind string
		if i%2 == 0 {
			cfg := QuestConfig{
				Transactions:  150 + rng.Intn(250),
				AvgLen:        6 + rng.Intn(10),
				AvgPatternLen: 3 + rng.Intn(4),
				Items:         30 + rng.Intn(70),
				Patterns:      15 + rng.Intn(30),
				Seed:          rng.Int63(),
			}
			db = GenerateQuest(cfg)
			kind = "quest"
		} else {
			cfg := CorpusConfig{
				Docs:       150 + rng.Intn(250),
				Vocab:      40 + rng.Intn(80),
				AvgLen:     5 + 8*rng.Float64(),
				ZipfS:      1.1 + 0.8*rng.Float64(),
				Topics:     rng.Intn(7),
				TopicShare: 0.3 + 0.5*rng.Float64(),
				TopicPool:  20 + rng.Intn(30),
				Shuffle:    rng.Intn(2) == 0,
				Seed:       rng.Int63(),
			}
			db = GenerateCorpus(cfg)
			kind = "corpus"
		}
		// Relative support 3%–12%, absolute floor 2: low enough to grow a
		// real search tree, high enough to keep the oracle tractable.
		frac := 0.03 + 0.09*rng.Float64()
		minsup := int(frac * float64(db.Len()))
		if minsup < 2 {
			minsup = 2
		}
		cases = append(cases, diffCase{
			name:    fmt.Sprintf("%02d-%s-n%d-s%d", i, kind, db.Len(), minsup),
			db:      db,
			minsup:  minsup,
			parAlgo: parAlgos[i%len(parAlgos)],
		})
	}
	return cases
}

// mineSet runs m and returns the canonical itemset→support map.
func mineSet(t *testing.T, m Miner, db *DB, minsup int) ResultSet {
	t.Helper()
	rs := ResultSet{}
	if err := m.Mine(db, minsup, rs); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return rs
}

// ascendingSet returns sets as a ResultSet after checking the
// mine.Collector contract on each itemset: items strictly ascending.
// (ResultSet keys sort the items, so comparing result sets alone would
// not see a kernel that breaks the order.)
func ascendingSet(t *testing.T, label string, sets []Itemset) ResultSet {
	t.Helper()
	rs := ResultSet{}
	for _, s := range sets {
		for i := 1; i < len(s.Items); i++ {
			if s.Items[i-1] >= s.Items[i] {
				t.Fatalf("%s: itemset %v is not strictly ascending", label, s.Items)
			}
		}
		rs.Collect(s.Items, s.Support)
	}
	return rs
}

// checkAgainst fails the test with a bounded diff when got diverges from
// the oracle.
func checkAgainst(t *testing.T, label string, want, got ResultSet) {
	t.Helper()
	if !got.Equal(want) {
		t.Errorf("%s diverges from oracle (%d vs %d itemsets):\n%s",
			label, len(got), len(want), want.Diff(got, 10))
	}
}

// partCases derives n corpora for the out-of-core equivalence net. They
// mirror diffCases' Quest/Zipf split but keep transactions short (average
// length 3–6): under the "many chunks" regime the SON scaled threshold can
// floor at 1 for a small chunk, and mining a chunk at support 1 enumerates
// every subset of every transaction — 2^len sets per transaction. Bounded
// lengths keep that worst case a few thousand candidates instead of
// billions, so the test exercises the threshold-1 regime without the
// exponential blowup (see DESIGN.md, "Choosing the memory budget").
func partCases(n int) []diffCase {
	rng := rand.New(rand.NewSource(20260807))
	cases := make([]diffCase, 0, n)
	for i := 0; i < n; i++ {
		var db *DB
		var kind string
		if i%2 == 0 {
			cfg := QuestConfig{
				Transactions:  150 + rng.Intn(250),
				AvgLen:        3 + rng.Intn(3),
				AvgPatternLen: 2 + rng.Intn(2),
				Items:         30 + rng.Intn(70),
				Patterns:      15 + rng.Intn(30),
				Seed:          rng.Int63(),
			}
			db = GenerateQuest(cfg)
			kind = "quest"
		} else {
			cfg := CorpusConfig{
				Docs:       150 + rng.Intn(250),
				Vocab:      40 + rng.Intn(80),
				AvgLen:     3 + 3*rng.Float64(),
				ZipfS:      1.1 + 0.8*rng.Float64(),
				Topics:     rng.Intn(7),
				TopicShare: 0.3 + 0.5*rng.Float64(),
				TopicPool:  20 + rng.Intn(30),
				Shuffle:    rng.Intn(2) == 0,
				Seed:       rng.Int63(),
			}
			db = GenerateCorpus(cfg)
			kind = "corpus"
		}
		frac := 0.03 + 0.09*rng.Float64()
		minsup := int(frac * float64(db.Len()))
		if minsup < 2 {
			minsup = 2
		}
		cases = append(cases, diffCase{
			name:   fmt.Sprintf("%02d-%s-n%d-s%d", i, kind, db.Len(), minsup),
			db:     db,
			minsup: minsup,
		})
	}
	return cases
}

// canonListing renders itemsets as the canonical (size, then lex) sorted
// FIMI-style listing, the CLI's output form. Comparing listings makes the
// partitioned-equivalence assertion literal: the two paths must be
// byte-identical, not merely set-equal.
func canonListing(sets []Itemset) string {
	ordered := append([]Itemset(nil), sets...)
	mine.SortCanonical(ordered)
	var b strings.Builder
	for _, s := range ordered {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", it)
		}
		fmt.Fprintf(&b, " (%d)\n", s.Support)
	}
	return b.String()
}

// TestDifferentialPartitionedEquivalence is the out-of-core acceptance
// net: every randomized corpus is written to a temp FIMI file and mined
// via MinePartitioned under three partitioning regimes — a budget that
// holds the whole file (1 chunk, where the SON scaled threshold equals
// minSupport exactly), one forcing a few chunks, and one forcing many —
// and the canonical listing must be byte-identical to the in-memory
// fpm.Mine answer for all four kernels. Workers alternate between 1 and
// 4 (up to four chunks mined at once on one work-stealing pool) across
// cases; CI additionally runs this under -race -short.
func TestDifferentialPartitionedEquivalence(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	for i, tc := range partCases(n) {
		tc := tc
		workers := 1
		if i%2 == 1 {
			workers = 4
		}
		t.Run(fmt.Sprintf("%s-w%d", tc.name, workers), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "db.dat")
			if err := WriteFIMIFile(path, tc.db); err != nil {
				t.Fatal(err)
			}
			est := fimi.DBBytes(tc.db)

			// Budgets are derived from the file's estimated resident
			// size; pass 1's chunk is capped at budget/(8·workers) (see
			// internal/partition), so budget 8·workers·(est+64) holds the
			// whole file in one chunk and 8·est/16 forces many chunks.
			regimes := []struct {
				name      string
				budget    int64
				minChunks uint64
			}{
				{"single", 8 * int64(workers) * (est + 64), 1},
				{"few", 8 * est / 3, 2},
				{"many", 8 * est / 16, 4},
			}

			if probe, err := Mine(tc.db, LCM, 0, tc.minsup); err != nil {
				t.Fatal(err)
			} else if len(probe) > 50_000 {
				t.Skipf("%d itemsets; corpus too dense to cross-check every kernel cheaply", len(probe))
			}

			algos := []Algorithm{LCM, Eclat, FPGrowth, Apriori}
			for _, algo := range algos {
				inMem, err := Mine(tc.db, algo, Applicable(algo), tc.minsup)
				if err != nil {
					t.Fatal(err)
				}
				want := canonListing(inMem)
				for _, rg := range regimes {
					sets, snap, err := MinePartitioned(path, algo, Applicable(algo), tc.minsup,
						rg.budget, workers, parallelCutoff(64))
					if err != nil {
						t.Fatalf("%s/%s: %v", algo, rg.name, err)
					}
					if rg.name == "single" && snap.Chunks != 1 {
						t.Errorf("%s/%s: %d chunks, want exactly 1", algo, rg.name, snap.Chunks)
					}
					if snap.Chunks < rg.minChunks {
						t.Errorf("%s/%s: %d chunks, want >= %d", algo, rg.name, snap.Chunks, rg.minChunks)
					}
					got := canonListing(sets)
					if got != want {
						t.Errorf("%s/%s/w%d: partitioned listing differs from in-memory (%d vs %d sets)",
							algo, rg.name, workers, len(sets), len(inMem))
					}
					// MinePartitioned promises canonical emission order:
					// the listing must already have been sorted.
					for k := 1; k < len(sets); k++ {
						if !mine.LessItems(sets[k-1].Items, sets[k].Items) {
							t.Fatalf("%s/%s: emission not canonical at %d", algo, rg.name, k)
						}
					}
				}
			}
		})
	}
}

func TestDifferentialAllMinersAgree(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 12
	}
	for _, tc := range diffCases(n) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := mineSet(t, mine.BruteForce{}, tc.db, tc.minsup)
			if len(want) > 200_000 {
				t.Skipf("oracle produced %d itemsets; corpus too dense to cross-check cheaply", len(want))
			}

			// Every kernel of the table, untuned and fully tuned: patterns
			// are performance-only transformations and must not change
			// results. Apriori has no applicable patterns, so it runs once.
			for _, algo := range kernel.Names() {
				pss := []PatternSet{0}
				if ap := Applicable(algo); ap != 0 {
					pss = append(pss, ap)
				}
				for _, ps := range pss {
					m, err := NewMiner(algo, ps)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainst(t, m.Name(), want, mineSet(t, m, tc.db, tc.minsup))
				}
			}
			// Apriori on a four-worker pool, which runs it as one task.
			am, err := NewParallel(4, Apriori, 0, parallelCutoff(64))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, am.Name()+"/w4", want, mineSet(t, am, tc.db, tc.minsup))

			// Parallel: sequential-equivalent (workers=1) and contended
			// (workers=4), with both merge paths on the contended pool: a
			// SliceCollector takes whole shards (mine.BatchCollector), a
			// plain Collector gets them replayed one itemset at a time.
			for _, pc := range []struct {
				workers int
				batch   bool
			}{{1, false}, {4, false}, {4, true}} {
				pm, err := NewParallel(pc.workers, tc.parAlgo, Applicable(tc.parAlgo), parallelCutoff(64))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/w%d/batch=%v", pm.Name(), pc.workers, pc.batch)
				var sc SliceCollector
				var c Collector = &sc
				if !pc.batch {
					c = struct{ Collector }{&sc}
				}
				if err := pm.Mine(tc.db, tc.minsup, c); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkAgainst(t, label, want, ascendingSet(t, label, sc.Sets))
			}
		})
	}
}

// sparseCases derives n corpora whose alphabet is 10–100 times their
// frequent set: a small Quest or Zipf core buried in a long tail of items
// that each occur fewer than minsup times, with item ids shuffled over the
// whole alphabet so frequent and infrequent ids interleave. They exercise
// what diffCases barely reach: FP-tree headers bounded by the frequent
// ranks, LCM and Eclat on raw ids far above every frequent one, and Eclat
// scratch vectors reused across many pruned candidates.
func sparseCases(n int) []diffCase {
	rng := rand.New(rand.NewSource(20261016))
	cases := make([]diffCase, 0, n)
	for i := 0; i < n; i++ {
		var core *DB
		var kind string
		if i%2 == 0 {
			core = GenerateQuest(QuestConfig{
				Transactions:  150 + rng.Intn(250),
				AvgLen:        5 + rng.Intn(8),
				AvgPatternLen: 2 + rng.Intn(4),
				Items:         15 + rng.Intn(25),
				Patterns:      8 + rng.Intn(15),
				Seed:          rng.Int63(),
			})
			kind = "quest"
		} else {
			core = GenerateCorpus(CorpusConfig{
				Docs:       150 + rng.Intn(250),
				Vocab:      20 + rng.Intn(30),
				AvgLen:     4 + 6*rng.Float64(),
				ZipfS:      1.1 + 0.8*rng.Float64(),
				Topics:     rng.Intn(5),
				TopicShare: 0.3 + 0.5*rng.Float64(),
				TopicPool:  10 + rng.Intn(15),
				Seed:       rng.Int63(),
			})
			kind = "corpus"
		}
		frac := 0.03 + 0.09*rng.Float64()
		minsup := int(frac * float64(core.Len()))
		if minsup < 2 {
			minsup = 2
		}
		frequent := 0
		for _, f := range core.Frequencies() {
			if f >= minsup {
				frequent++
			}
		}
		ratio := 10 + rng.Intn(91)
		vocab := ratio * max(frequent, 1)
		if vocab < core.NumItems {
			vocab = core.NumItems
		}
		// Most tail items occur once to three times; one in ten sits just
		// below the support threshold.
		tx := make([]Transaction, len(core.Tx))
		for ti, t := range core.Tx {
			tx[ti] = append(Transaction(nil), t...)
		}
		for it := core.NumItems; it < vocab; it++ {
			occ := 1 + rng.Intn(min(3, minsup-1))
			if rng.Intn(10) == 0 {
				occ = minsup - 1
			}
			for k := 0; k < occ; k++ {
				ti := rng.Intn(len(tx))
				tx[ti] = append(tx[ti], Item(it))
			}
		}
		perm := rng.Perm(vocab)
		for _, t := range tx {
			for j, it := range t {
				t[j] = Item(perm[it])
			}
		}
		db := &DB{Tx: tx, NumItems: vocab}
		db.Normalize()
		cases = append(cases, diffCase{
			name:   fmt.Sprintf("%02d-%s-n%d-s%d-f%d-v%d", i, kind, db.Len(), minsup, frequent, vocab),
			db:     db,
			minsup: minsup,
		})
	}
	return cases
}

// TestDifferentialSparseAlphabets mines every sparse-alphabet corpus with
// each kernel, untuned and with all applicable patterns, sequentially and
// on a four-worker pool; every canonical listing must be byte-identical to
// the brute-force oracle's.
func TestDifferentialSparseAlphabets(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 6
	}
	for _, tc := range sparseCases(n) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var oracle SliceCollector
			if err := (mine.BruteForce{}).Mine(tc.db, tc.minsup, &oracle); err != nil {
				t.Fatal(err)
			}
			if len(oracle.Sets) > 200_000 {
				t.Skipf("oracle produced %d itemsets; corpus too dense to cross-check cheaply", len(oracle.Sets))
			}
			want := canonListing(oracle.Sets)
			check := func(label string, m Miner) {
				t.Helper()
				var sc SliceCollector
				if err := m.Mine(tc.db, tc.minsup, &sc); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := canonListing(sc.Sets); got != want {
					t.Errorf("%s: listing differs from the oracle's (%d vs %d itemsets)", label, len(sc.Sets), len(oracle.Sets))
				}
			}
			for _, algo := range []Algorithm{LCM, Eclat, FPGrowth} {
				for _, ps := range []PatternSet{0, Applicable(algo)} {
					m, err := NewMiner(algo, ps)
					if err != nil {
						t.Fatal(err)
					}
					check(m.Name(), m)
					pm, err := NewParallel(4, algo, ps, parallelCutoff(64))
					if err != nil {
						t.Fatal(err)
					}
					check(pm.Name()+"/w4", pm)
				}
			}
		})
	}
}

// TestBenchCellsAgree mines the benchmark's three mine-dense cells
// (quest4k@80, docs3k@300 and skew6k@350, the corpora of bench/mine.go)
// with each splitting kernel untuned, with every applicable pattern and
// with all but one of them, and checks every listing against untuned LCM,
// the benchmark's own reference answer. The differential corpora above
// have a few hundred rows; a tuned path that goes wrong only on these
// larger inputs would otherwise first show as a wrong benchmark answer.
func TestBenchCellsAgree(t *testing.T) {
	benchSetup()
	benchSkewSetup()
	for _, c := range []struct {
		name   string
		db     *DB
		minsup int
	}{{"quest4k", benchQuest, 80}, {"docs3k", benchDocs, 300}, {"skew6k", benchSkew, 350}} {
		t.Run(c.name, func(t *testing.T) {
			var want ResultSet
			for _, algo := range []Algorithm{LCM, Eclat, FPGrowth} {
				all := Applicable(algo)
				pss := []PatternSet{0, all}
				for _, p := range all.Patterns() {
					pss = append(pss, all.Without(p))
				}
				for _, ps := range pss {
					m, err := NewMiner(algo, ps)
					if err != nil {
						t.Fatal(err)
					}
					var sc SliceCollector
					if err := m.Mine(c.db, c.minsup, &sc); err != nil {
						t.Fatalf("%s: %v", m.Name(), err)
					}
					got := ascendingSet(t, m.Name(), sc.Sets)
					if want == nil {
						want = got // untuned LCM runs first
						continue
					}
					checkAgainst(t, m.Name(), want, got)
				}
			}
		})
	}
}

// TestServeHotRequestAgrees mines the benchmark's serve hot request, T3's
// medium.dat at support 12 (the Quest parameters of bench/serve.go),
// written and parsed back as the server parses it, with each splitting
// kernel untuned and with every applicable pattern. Every listing must
// hold strictly ascending itemsets and equal untuned Eclat's. The
// mine-dense cells above check against LCM; a fault that tuned and
// untuned LCM shared would pass them, so this reference is Eclat.
func TestServeHotRequestAgrees(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, GenerateQuest(QuestConfig{Transactions: 4000, AvgLen: 10, AvgPatternLen: 4,
		Items: 400, Patterns: 800, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	db, err := ReadFIMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want ResultSet
	for _, algo := range []Algorithm{Eclat, LCM, FPGrowth} {
		for _, ps := range []PatternSet{0, Applicable(algo)} {
			m, err := NewMiner(algo, ps)
			if err != nil {
				t.Fatal(err)
			}
			var sc SliceCollector
			if err := m.Mine(db, 12, &sc); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			got := ascendingSet(t, m.Name(), sc.Sets)
			if want == nil {
				want = got // untuned Eclat runs first
				continue
			}
			checkAgainst(t, m.Name(), want, got)
		}
	}
}
