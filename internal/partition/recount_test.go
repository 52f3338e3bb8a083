package partition

import (
	"math/rand"
	"slices"
	"testing"

	"fpm/internal/dataset"
)

// verticalCounts recounts txs against s in one fresh vertical recount with
// a budget large enough for one stripe.
func verticalCounts(s *sealed, txs []dataset.Transaction) []uint32 {
	counts := make([]uint32, s.Candidates())
	newVertical(s, 1<<20).Count(txs, counts)
	return counts
}

// walkCounts is the oracle: the mutable trie's per-transaction subset walk.
func walkCounts(tr *trie, txs []dataset.Transaction) []uint32 {
	counts := make([]uint32, tr.Candidates())
	for _, tx := range txs {
		tr.Count(tx, counts)
	}
	return counts
}

// residentBytes is the size of the vectors v holds now.
func residentBytes(v *vertical) int64 {
	return int64(len(v.vecs)+len(v.bufs)+1) * int64(v.rows/64) * 8
}

// randomChunk draws rows normalized transactions over [0, vocab), each
// item present with probability 1/every, skipping the absent items. About
// one row in eight is empty.
func randomChunk(rng *rand.Rand, rows, vocab, every int, absent map[dataset.Item]bool) []dataset.Transaction {
	txs := make([]dataset.Transaction, rows)
	for r := range txs {
		if rng.Intn(8) == 0 {
			continue
		}
		for it := dataset.Item(0); int(it) < vocab; it++ {
			if !absent[it] && rng.Intn(every) == 0 {
				txs[r] = append(txs[r], it)
			}
		}
	}
	return txs
}

// TestVerticalRecountMatchesTrieWalk is the recount's property test: on
// random candidate tries and random chunks, the vertical counts equal the
// mutable trie walk's, candidate for candidate. Chunks straddle the 64-row
// word boundary, the smallest budget forces 64-row stripes, transactions
// carry items above every trie key, and the two top keys never occur.
func TestVerticalRecountMatchesTrieWalk(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 10 + rng.Intn(30)
		tr := newTrie()
		for _, s := range randomSets(rng, 80, vocab, 6) {
			tr.Add(s)
		}
		top := dataset.Item(vocab)
		tr.Add([]dataset.Item{top})
		tr.Add([]dataset.Item{0, top + 1})
		absent := map[dataset.Item]bool{top: true, top + 1: true}
		sl := tr.Seal()

		for _, budget := range []int64{1, 1 << 20} {
			vc := newVertical(sl, budget)
			if budget == 1 && vc.stripeMax != 64 {
				t.Fatalf("seed %d: a 1-byte budget stripes %d rows, want 64", seed, vc.stripeMax)
			}
			got := make([]uint32, sl.Candidates())
			want := make([]uint32, tr.Candidates())
			for _, rows := range []int{1, 63, 64, 65, 1000, 65} {
				chunk := randomChunk(rng, rows, vocab+10, 2+rng.Intn(3), absent)
				vc.Count(chunk, got)
				for _, tx := range chunk {
					tr.Count(tx, want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d budget %d: counts diverge after a %d-row chunk", seed, budget, rows)
				}
			}
			var absentHits uint32
			for _, s := range tr.Emit(got, 0, nil) {
				if slices.ContainsFunc(s.Items, func(it dataset.Item) bool { return absent[it] }) {
					absentHits += uint32(s.Support)
				}
			}
			if absentHits != 0 {
				t.Fatalf("seed %d: candidates of never-occurring items counted %d", seed, absentHits)
			}
		}
	}

	// An empty trie counts nothing and must not fail.
	empty := newTrie().Seal()
	newVertical(empty, 1).Count(randomChunk(rand.New(rand.NewSource(1)), 100, 20, 2, nil), nil)
}

// TestVerticalRecountBoundedMemory counts a trie of 5,000 key items under
// a budget that fits 64-row stripes only: the resident vectors stay within
// the budget, and the counts still match the trie walk.
func TestVerticalRecountBoundedMemory(t *testing.T) {
	const keys = 5000
	const budget = 64 << 10
	rng := rand.New(rand.NewSource(9))
	tr := newTrie()
	for it := dataset.Item(0); it < keys; it++ {
		tr.Add([]dataset.Item{it})
	}
	for _, s := range randomSets(rng, 2000, keys, 3) {
		tr.Add(s)
	}
	sl := tr.Seal()
	chunk := make([]dataset.Transaction, 1000)
	for r := range chunk {
		for len(chunk[r]) < 30 {
			chunk[r] = append(chunk[r], dataset.Item(rng.Intn(keys+1000)))
		}
		slices.Sort(chunk[r])
		chunk[r] = slices.Compact(chunk[r])
	}

	vc := newVertical(sl, budget)
	if vc.keys != keys {
		t.Fatalf("%d key items, want %d", vc.keys, keys)
	}
	got := make([]uint32, sl.Candidates())
	vc.Count(chunk, got)
	// The stated cap: the budget, or one word per vector when even a
	// 64-row stripe does not fit it.
	limit := max(int64(budget), int64(vc.vectors())*8)
	if b := residentBytes(vc); b > limit || b == 0 {
		t.Fatalf("resident vectors %d B, cap %d B", b, limit)
	}
	if vc.stripeMax >= len(chunk) {
		t.Fatalf("stripe of %d rows does not split the %d-row chunk", vc.stripeMax, len(chunk))
	}
	if !slices.Equal(got, walkCounts(tr, chunk)) {
		t.Fatal("striped counts diverge from the trie walk")
	}
}

// TestVerticalRecountAllocs is the allocation-regression guard for the
// pass-2 hot path: once the vectors have grown for one chunk, counting a
// chunk no larger allocates nothing.
func TestVerticalRecountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	tr := newTrie()
	for _, s := range randomSets(rng, 80, 30, 6) {
		tr.Add(s)
	}
	sl := tr.Seal()
	first := randomChunk(rng, 300, 30, 3, nil)
	second := randomChunk(rng, 200, 30, 3, nil)
	vc := newVertical(sl, 1<<20)
	counts := make([]uint32, sl.Candidates())
	vc.Count(first, counts)
	if n := testing.AllocsPerRun(50, func() { vc.Count(second, counts) }); n != 0 {
		t.Fatalf("vertical Count allocates %.1f times per chunk, want 0", n)
	}
}
