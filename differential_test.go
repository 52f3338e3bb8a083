package fpm

// Differential property test: on randomized corpora spanning the density /
// skew / support space, every kernel (with and without its applicable
// tuning patterns), the brute-force oracle, and the parallel miner (both
// worker counts, both merge modes) must produce the identical frequent
// itemset set. This is the strongest correctness net in the repository: the
// tuning patterns are pure performance transformations, so ANY divergence
// between configurations is a bug.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpm/internal/eclat"
	"fpm/internal/fimi"
	"fpm/internal/mine"
	"fpm/internal/parallel"
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
	for i := 1; i < len(ordered); i++ {
		if !mine.LessItems(ordered[i-1].Items, ordered[i].Items) {
			// Non-canonical input (kernel enumeration order): sort.
			sortCanon(ordered)
			break
		}
	}
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

func sortCanon(sets []Itemset) {
	sort.Slice(sets, func(a, b int) bool { return mine.LessItems(sets[a].Items, sets[b].Items) })
}

// TestDifferentialPartitionedEquivalence is the out-of-core acceptance
// net: every randomized corpus is written to a temp FIMI file and mined
// via MinePartitioned under three partitioning regimes — a budget that
// holds the whole file (1 chunk, where the SON scaled threshold equals
// minSupport exactly), one forcing a few chunks, and one forcing many —
// and the canonical listing must be byte-identical to the in-memory
// fpm.Mine answer for all four kernels. Workers alternate between 1
// (sequential chunk mining) and 4 (work-stealing pool per chunk) across
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
			// size; the resident chunk is capped at budget/8 (see
			// internal/partition), so budget 8(est+64) holds the whole
			// file in one chunk and 8·est/16 forces many chunks.
			regimes := []struct {
				name      string
				budget    int64
				minChunks uint64
			}{
				{"single", 8 * (est + 64), 1},
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
						rg.budget, workers, ParallelCutoff(64))
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

			// All four kernels, untuned and fully tuned: patterns are
			// performance-only transformations and must not change results.
			for _, algo := range []Algorithm{LCM, Eclat, FPGrowth} {
				for _, ps := range []PatternSet{0, Applicable(algo)} {
					m, err := NewMiner(algo, ps)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainst(t, m.Name(), want, mineSet(t, m, tc.db, tc.minsup))
				}
			}
			checkAgainst(t, "hmine", want, mineSet(t, NewHMine(), tc.db, tc.minsup))

			// Parallel: sequential-equivalent (workers=1) and contended
			// (workers=4), with both merge modes on the contended pool.
			for _, pc := range []struct {
				workers int
				det     bool
			}{{1, false}, {4, false}, {4, true}} {
				opts := []ParallelOption{ParallelCutoff(64)}
				if pc.det {
					opts = append(opts, ParallelDeterministic())
				}
				pm, err := NewParallel(pc.workers, tc.parAlgo, Applicable(tc.parAlgo), opts...)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/w%d/det=%v", pm.Name(), pc.workers, pc.det)
				checkAgainst(t, label, want, mineSet(t, pm, tc.db, tc.minsup))
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
// on a four-worker pool, plus Eclat's exact-range ablation; every
// canonical listing must be byte-identical to the brute-force oracle's.
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
					pm, err := NewParallel(4, algo, ps, ParallelCutoff(64))
					if err != nil {
						t.Fatal(err)
					}
					check(pm.Name()+"/w4", pm)
				}
			}
			exact := func() mine.Miner {
				return eclat.New(eclat.Options{Patterns: Applicable(Eclat), ExactRanges: true})
			}
			check("eclat-exact", exact())
			check("eclat-exact/w4", parallel.New(4, exact, parallel.WithCutoff(64)))
		})
	}
}
