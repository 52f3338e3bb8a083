package partition

// Benchmarks for the out-of-core hot structures: candidate-trie build
// (pass 1 insert path) and the pass-2 subset recount. The workload mirrors
// the repo's skewed Table-6-style corpus (BenchmarkPartitionedVsInMemory)
// at a size that keeps -benchtime=1x CI smoke runs cheap. EXPERIMENTS.md
// ("Layout patterns on the production paths") records the before/after
// deltas for the P3+P4 sealed trie and the inlined child search.

import (
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/lcm"
	"fpm/internal/mine"
)

var (
	recountDB    *dataset.DB
	recountCands [][]dataset.Item
)

// recountSetup builds a realistic pass-2 input: the corpus transactions
// plus the candidate union a SON pass 1 would produce for them (here: the
// exact frequent set at the benchmark support, mined once with LCM).
func recountSetup(b *testing.B) {
	b.Helper()
	if recountDB != nil {
		return
	}
	recountDB = gen.Corpus(gen.CorpusConfig{
		Docs: 8000, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
		Topics: 8, TopicShare: 0.7, TopicPool: 50, Shuffle: true, Seed: 21,
	})
	var sc mine.SliceCollector
	if err := lcm.New(lcm.Options{}).Mine(recountDB, 600, &sc); err != nil {
		b.Fatal(err)
	}
	if len(sc.Sets) < 100 {
		b.Fatalf("degenerate candidate set: %d", len(sc.Sets))
	}
	for _, s := range sc.Sets {
		recountCands = append(recountCands, s.Items)
	}
}

func buildTrie(b *testing.B) *trie {
	b.Helper()
	tr := newTrie()
	for _, c := range recountCands {
		tr.Add(c)
	}
	return tr
}

// BenchmarkTrieAdd measures the pass-1 candidate insert path: every
// locally-frequent itemset of every chunk goes through Add, and most
// inserts after the first chunk are duplicate hits on existing paths.
func BenchmarkTrieAdd(b *testing.B) {
	recountSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := newTrie()
		// First chunk: all new; second chunk: all duplicates — the two
		// halves of the real insert mix.
		for _, c := range recountCands {
			tr.Add(c)
		}
		for _, c := range recountCands {
			tr.Add(c)
		}
		if tr.Candidates() != len(recountCands) {
			b.Fatal("bad trie")
		}
	}
}

// BenchmarkPass2Recount measures one full pass-2 recount: every
// transaction of the corpus walked through the candidate trie. This is
// the dominant cost of pass 2 (the stream parse is measured separately in
// internal/fimi). The mutable sub-benchmark is the pre-seal baseline; the
// sealed sub-benchmark is what production pass 2 runs.
func BenchmarkPass2Recount(b *testing.B) {
	recountSetup(b)
	tr := buildTrie(b)
	counts := make([]uint32, tr.Candidates())
	b.Run("mutable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tx := range recountDB.Tx {
				tr.Count(tx, counts)
			}
		}
		if counts[0] == 0 {
			b.Fatal("no counting happened")
		}
	})
	b.Run("sealed", func(b *testing.B) {
		sl := tr.Seal()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tx := range recountDB.Tx {
				sl.Count(tx, counts)
			}
		}
		if counts[0] == 0 {
			b.Fatal("no counting happened")
		}
	})
}

// BenchmarkSeal measures the one-time flattening cost paid between the
// passes — the price of the sealed form's pass-2 wins.
func BenchmarkSeal(b *testing.B) {
	recountSetup(b)
	tr := buildTrie(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sl := tr.Seal(); sl.Candidates() != tr.Candidates() {
			b.Fatal("bad seal")
		}
	}
}
