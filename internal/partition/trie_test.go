package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/mine"
)

func TestTrieAddDedupAndEmit(t *testing.T) {
	tr := newTrie()
	sets := [][]dataset.Item{{1}, {2}, {1, 2}, {1, 2, 5}, {2, 5}}
	for _, s := range sets {
		if !tr.Add(s) {
			t.Fatalf("Add(%v) reported duplicate on first insert", s)
		}
	}
	for _, s := range sets {
		if tr.Add(s) {
			t.Fatalf("Add(%v) reported new on re-insert", s)
		}
	}
	// Prefixes of inserted sets are not themselves candidates unless
	// inserted: {1,2} was inserted, but inserting {1,2,5} alone must not
	// have materialised {1} or {1,2} as candidates — checked via count.
	if tr.Candidates() != len(sets) {
		t.Fatalf("Candidates = %d, want %d", tr.Candidates(), len(sets))
	}

	counts := make([]uint32, tr.Candidates())
	tr.Count(dataset.Transaction{1, 2, 5}, counts) // contains all but... {2,5} yes, all 5
	tr.Count(dataset.Transaction{2, 5}, counts)    // contains {2}, {2,5}
	tr.Count(dataset.Transaction{1}, counts)       // contains {1}
	tr.Count(dataset.Transaction{}, counts)        // contains nothing

	got := map[string]int{}
	for _, s := range tr.Emit(counts, 1, nil) {
		got[mine.Key(s.Items)] = s.Support
	}
	want := map[string]int{"1": 2, "2": 2, "1,2": 1, "1,2,5": 1, "2,5": 2}
	if len(got) != len(want) {
		t.Fatalf("Emit = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("support[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}

	// Thresholding drops the singletons' subsets below support 2.
	if kept := tr.Emit(counts, 2, nil); len(kept) != 3 {
		t.Fatalf("Emit(minsup=2) kept %d sets, want 3: %v", len(kept), kept)
	}
}

// TestTrieCountMatchesBruteForce cross-checks the lockstep subset walk
// against dataset.ContainsAll on randomized candidate sets and
// transactions.
func TestTrieCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tr := newTrie()
		var cands [][]dataset.Item
		seen := map[string]bool{}
		for i := 0; i < 30; i++ {
			l := 1 + rng.Intn(4)
			set := map[dataset.Item]bool{}
			for len(set) < l {
				set[dataset.Item(rng.Intn(12))] = true
			}
			items := make([]dataset.Item, 0, l)
			for it := range set {
				items = append(items, it)
			}
			sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
			if seen[mine.Key(items)] {
				continue
			}
			seen[mine.Key(items)] = true
			if !tr.Add(items) {
				t.Fatalf("trial %d: Add(%v) duplicate but key unseen", trial, items)
			}
			cands = append(cands, items)
		}

		var txs []dataset.Transaction
		for i := 0; i < 40; i++ {
			var tx dataset.Transaction
			for it := dataset.Item(0); it < 12; it++ {
				if rng.Intn(3) == 0 {
					tx = append(tx, it)
				}
			}
			txs = append(txs, tx)
		}

		counts := make([]uint32, tr.Candidates())
		for _, tx := range txs {
			tr.Count(tx, counts)
		}
		emitted := map[string]int{}
		for _, s := range tr.Emit(counts, 0, nil) {
			emitted[mine.Key(s.Items)] = s.Support
		}
		for _, cand := range cands {
			want := 0
			for _, tx := range txs {
				if dataset.ContainsAll(tx, cand) {
					want++
				}
			}
			if emitted[mine.Key(cand)] != want {
				t.Fatalf("trial %d: candidate %v counted %d, brute force %d",
					trial, cand, emitted[mine.Key(cand)], want)
			}
		}
	}
}

// randomSets generates n random sorted duplicate-free itemsets over a
// vocab-item alphabet. Duplicate sets across draws are allowed — the trie
// must collapse them.
func randomSets(rng *rand.Rand, n, vocab, maxLen int) [][]dataset.Item {
	sets := make([][]dataset.Item, 0, n)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(maxLen)
		seen := make(map[dataset.Item]bool, l)
		s := make([]dataset.Item, 0, l)
		for len(s) < l {
			it := dataset.Item(rng.Intn(vocab))
			if !seen[it] {
				seen[it] = true
				s = append(s, it)
			}
		}
		slices.Sort(s)
		sets = append(sets, s)
	}
	return sets
}

// randomTx generates a random normalized transaction.
func randomTx(rng *rand.Rand, vocab int) dataset.Transaction {
	var tx dataset.Transaction
	for it := dataset.Item(0); int(it) < vocab; it++ {
		if rng.Intn(3) == 0 {
			tx = append(tx, it)
		}
	}
	return tx
}

// TestSealEquivalence is the seal property test: on randomized candidate
// sets, the sealed trie must preserve candidate ids (count arrays line up
// element for element), subset-count semantics, and Emit's canonical
// enumeration order; unseal must round-trip back to a mutable trie with
// the same behaviour and working inserts.
func TestSealEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 8 + rng.Intn(40)
		tr := newTrie()
		for _, s := range randomSets(rng, 60, vocab, 6) {
			tr.Add(s)
		}
		sl := tr.Seal()
		if sl.Candidates() != tr.Candidates() {
			t.Fatalf("seed %d: sealed candidates %d, mutable %d", seed, sl.Candidates(), tr.Candidates())
		}

		// Count equivalence, element for element: equality of the flat
		// arrays proves candidate ids survived the node renumbering.
		probes := make([]dataset.Transaction, 50)
		for i := range probes {
			probes[i] = randomTx(rng, vocab)
		}
		cm := walkCounts(tr, probes)
		cs := verticalCounts(sl, probes)
		if !slices.Equal(cm, cs) {
			t.Fatalf("seed %d: counts diverge between mutable and sealed form", seed)
		}

		// Emit equivalence: same itemsets, same supports, same (prefix)
		// order — DFS preorder sealing must not disturb enumeration.
		em := tr.Emit(cm, 1, nil)
		es := sl.Emit(cs, 1, nil)
		if len(em) != len(es) {
			t.Fatalf("seed %d: emit lengths %d vs %d", seed, len(em), len(es))
		}
		for i := range em {
			if em[i].Support != es[i].Support || !slices.Equal(em[i].Items, es[i].Items) {
				t.Fatalf("seed %d: emit diverges at %d: %v/%d vs %v/%d",
					seed, i, em[i].Items, em[i].Support, es[i].Items, es[i].Support)
			}
		}

		// Unseal round-trip: same counting behaviour, and the rebuilt
		// trie accepts further inserts exactly like the original.
		ut := sl.unseal()
		if cu := walkCounts(ut, probes); !slices.Equal(cm, cu) {
			t.Fatalf("seed %d: unsealed counts diverge", seed)
		}
		for _, s := range randomSets(rng, 10, vocab, 6) {
			want := tr.Add(slices.Clone(s))
			if got := ut.Add(s); got != want {
				t.Fatalf("seed %d: post-unseal Add(%v) = %v, original trie says %v", seed, s, got, want)
			}
		}
	}
}

// TestSealedEmitAgainstMine cross-checks Emit-through-seal on a real mined
// candidate set: sealing the trie of an exact frequent set and emitting at
// the same support must reproduce the kernel's answer.
func TestSealedEmitAgainstMine(t *testing.T) {
	db := randomDB(29, 200, 14)
	const minsup = 8
	var sc mine.SliceCollector
	if err := lcmFactory().Mine(db, minsup, &sc); err != nil {
		t.Fatal(err)
	}
	tr := newTrie()
	for _, s := range sc.Sets {
		tr.Add(s.Items)
	}
	sl := tr.Seal()
	got := sl.Emit(verticalCounts(sl, db.Tx), minsup, nil)
	if len(got) != len(sc.Sets) {
		t.Fatalf("sealed recount kept %d sets, kernel found %d", len(got), len(sc.Sets))
	}
	for _, s := range got {
		want := -1
		for _, ks := range sc.Sets {
			if slices.Equal(ks.Items, s.Items) {
				want = ks.Support
				break
			}
		}
		if want != s.Support {
			t.Fatalf("set %v: sealed support %d, kernel %d", s.Items, s.Support, want)
		}
	}
}

// TestFindChild pins the inlined child search against the obvious spec on
// both sides of the linear/binary cutover.
func TestFindChild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, childSearchLinearMax, childSearchLinearMax + 1, 40} {
		ch := make([]childRef, n)
		prev := dataset.Item(0)
		for i := range ch {
			prev += dataset.Item(1 + rng.Intn(3))
			ch[i] = childRef{item: prev, node: int32(i + 1)}
		}
		for probe := dataset.Item(0); probe <= prev+1; probe++ {
			want := 0
			for want < n && ch[want].item < probe {
				want++
			}
			if got := findChild(ch, probe); got != want {
				t.Fatalf("findChild(%d children, probe %d) = %d, want %d", n, probe, got, want)
			}
		}
	}
}
