package servecache_test

// The subsumption property test — the correctness net under the result
// cache's central claim: because mining is complete, a listing mined at
// support threshold s1 and filtered to s2 >= s1 is byte-identical (as a
// canonical listing) to mining directly at s2. Randomized corpora spanning
// the density/skew space, randomized (s1 < s2) pairs, all four kernels.
// If any kernel's emission, the canonicalization, or the filter ever
// disagrees, a cached answer would silently diverge from a fresh mine —
// the one failure mode a result cache must never have.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"fpm"
	"fpm/internal/durable"
	"fpm/internal/servecache"
)

// renderCanon renders a listing in canonical order as the FIMI-style text
// the CLI emits; comparing rendered strings makes "byte-identical" literal.
func renderCanon(sets []fpm.Itemset) string {
	canon := servecache.Canonicalize(sets)
	var b strings.Builder
	for _, s := range canon {
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

func TestSubsumptionPropertyAllKernels(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	rng := rand.New(rand.NewSource(20260808))
	algos := []fpm.Algorithm{fpm.LCM, fpm.Eclat, fpm.FPGrowth, fpm.Apriori}
	for i := 0; i < n; i++ {
		var db *fpm.DB
		var kind string
		if i%2 == 0 {
			db = fpm.GenerateQuest(fpm.QuestConfig{
				Transactions:  120 + rng.Intn(180),
				AvgLen:        5 + rng.Intn(6),
				AvgPatternLen: 2 + rng.Intn(3),
				Items:         30 + rng.Intn(50),
				Patterns:      10 + rng.Intn(20),
				Seed:          rng.Int63(),
			})
			kind = "quest"
		} else {
			db = fpm.GenerateCorpus(fpm.CorpusConfig{
				Docs:       120 + rng.Intn(180),
				Vocab:      40 + rng.Intn(60),
				AvgLen:     4 + 5*rng.Float64(),
				ZipfS:      1.1 + 0.7*rng.Float64(),
				Topics:     rng.Intn(5),
				TopicShare: 0.3 + 0.4*rng.Float64(),
				TopicPool:  15 + rng.Intn(20),
				Shuffle:    rng.Intn(2) == 0,
				Seed:       rng.Int63(),
			})
			kind = "corpus"
		}
		// s1 < s2: the cached threshold and a strictly higher query.
		s1 := 2 + int(0.03*float64(db.Len())) + rng.Intn(3)
		s2 := s1 + 1 + rng.Intn(1+db.Len()/20)
		tc := struct {
			name   string
			db     *fpm.DB
			s1, s2 int
		}{fmt.Sprintf("%02d-%s-n%d-s%d-s%d", i, kind, db.Len(), s1, s2), db, s1, s2}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "db.dat")
			if err := fpm.WriteFIMIFile(path, tc.db); err != nil {
				t.Fatal(err)
			}
			id, _, err := durable.FileIdentity(path, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range algos {
				cache := servecache.NewResultCache(0)
				key := servecache.ResultKey{ID: id, Algo: string(algo)}

				low, err := fpm.Mine(tc.db, algo, fpm.Applicable(algo), tc.s1)
				if err != nil {
					t.Fatalf("%s mine(s1=%d): %v", algo, tc.s1, err)
				}
				cache.Insert(key, tc.s1, low)

				// The higher-threshold query must be served by subsumption...
				got, ok := cache.Serve(key, tc.s2)
				if !ok {
					t.Fatalf("%s: cache missed a subsumed query (cached s1=%d, query s2=%d)", algo, tc.s1, tc.s2)
				}
				// ...and byte-identically match a direct mine at s2.
				direct, err := fpm.Mine(tc.db, algo, fpm.Applicable(algo), tc.s2)
				if err != nil {
					t.Fatalf("%s mine(s2=%d): %v", algo, tc.s2, err)
				}
				want := renderCanon(direct)
				if have := renderCanon(got); have != want {
					t.Errorf("%s: subsumed listing differs from direct mine at s2=%d (%d vs %d sets)",
						algo, tc.s2, len(got), len(direct))
				}
				// The exact-threshold round trip must be lossless too.
				exact, ok := cache.Serve(key, tc.s1)
				if !ok {
					t.Fatalf("%s: cache missed the exact threshold it was filled at", algo)
				}
				if have := renderCanon(exact); have != renderCanon(low) {
					t.Errorf("%s: exact-threshold serve is not the inserted listing", algo)
				}
				if s := cache.Stats(); s.HitsSubsumed != 1 || s.HitsExact != 1 {
					t.Fatalf("%s: stats = %+v, want 1 subsumed + 1 exact hit", algo, s)
				}
			}
		})
	}
}
