package partition

// Benchmarks for the out-of-core hot structures: candidate-trie build
// (pass 1 insert path) and the pass-2 recount. The dense workload mirrors
// the repo's skewed Table-6-style corpus (BenchmarkPartitionedVsInMemory),
// the sparse one mine-ooc's, each at a size that keeps -benchtime=1x CI
// smoke runs cheap. EXPERIMENTS.md records the before/after deltas for
// the P3+P4 sealed trie and the inlined child search ("Layout patterns on
// the production paths") and for the vertical recount ("Vertical pass-2
// recount").

import (
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/lcm"
	"fpm/internal/mine"
)

// recountCorpus is one pass-2 input: transactions cut into chunks of
// chunk rows, and the candidate union a SON pass 1 would produce for them
// (here: the exact frequent set at support sup, mined once with LCM).
type recountCorpus struct {
	chunk int
	db    *dataset.DB
	cands [][]dataset.Item
}

var recountCorpora = map[string]*recountCorpus{}

// recountSetup builds the named pass-2 input once. "dense" is the skewed
// topic corpus, one chunk and a few long candidates per transaction;
// "sparse" is mine-ooc's corpus shape (shuffled Zipf documents, no topics)
// at a support low enough for a many-candidate union, cut into chunks of
// 1,000 rows.
func recountSetup(b *testing.B, name string) *recountCorpus {
	b.Helper()
	if rc := recountCorpora[name]; rc != nil {
		return rc
	}
	var rc *recountCorpus
	var sup int
	switch name {
	case "dense":
		rc, sup = &recountCorpus{chunk: 8000, db: gen.Corpus(gen.CorpusConfig{
			Docs: 8000, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
			Topics: 8, TopicShare: 0.7, TopicPool: 50, Shuffle: true, Seed: 21,
		})}, 600
	case "sparse":
		rc, sup = &recountCorpus{chunk: 1000, db: gen.Corpus(gen.CorpusConfig{
			Docs: 40000, Vocab: 10000, AvgLen: 10, ZipfS: 1.1, Seed: 13,
		})}, 30
	}
	var sc mine.SliceCollector
	if err := lcm.New(lcm.Options{}).Mine(rc.db, sup, &sc); err != nil {
		b.Fatal(err)
	}
	if len(sc.Sets) < 100 {
		b.Fatalf("degenerate candidate set: %d", len(sc.Sets))
	}
	for _, s := range sc.Sets {
		rc.cands = append(rc.cands, s.Items)
	}
	recountCorpora[name] = rc
	return rc
}

func (rc *recountCorpus) trie() *trie {
	tr := newTrie()
	for _, c := range rc.cands {
		tr.Add(c)
	}
	return tr
}

// BenchmarkTrieAdd measures the pass-1 candidate insert path: every
// locally-frequent itemset of every chunk goes through Add, and most
// inserts after the first chunk are duplicate hits on existing paths.
func BenchmarkTrieAdd(b *testing.B) {
	cands := recountSetup(b, "dense").cands
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := newTrie()
		// First chunk: all new; second chunk: all duplicates — the two
		// halves of the real insert mix.
		for _, c := range cands {
			tr.Add(c)
		}
		for _, c := range cands {
			tr.Add(c)
		}
		if tr.Candidates() != len(cands) {
			b.Fatal("bad trie")
		}
	}
}

// BenchmarkPass2Recount measures one full pass-2 recount of each corpus
// against its candidate union. This is the dominant cost of pass 2 (the
// stream parse is measured separately in internal/fimi). The mutable
// sub-benchmark is the per-transaction subset walk of the pre-seal trie;
// the vertical sub-benchmark is what production pass 2 runs, chunk by
// chunk under the vector budget BenchmarkPartitionedVsInMemory's 4 MiB
// gives a chunk.
func BenchmarkPass2Recount(b *testing.B) {
	for _, name := range []string{"dense", "sparse"} {
		b.Run(name, func(b *testing.B) {
			rc := recountSetup(b, name)
			tr := rc.trie()
			counts := make([]uint32, tr.Candidates())
			b.Run("mutable", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, tx := range rc.db.Tx {
						tr.Count(tx, counts)
					}
				}
				if counts[0] == 0 {
					b.Fatal("no counting happened")
				}
			})
			b.Run("vertical", func(b *testing.B) {
				sl := tr.Seal()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vc := newVertical(sl, 4<<20/chunkDivisor)
					for lo := 0; lo < rc.db.Len(); lo += rc.chunk {
						vc.Count(rc.db.Tx[lo:min(lo+rc.chunk, rc.db.Len())], counts)
					}
				}
				if counts[0] == 0 {
					b.Fatal("no counting happened")
				}
			})
		})
	}
}

// BenchmarkSeal measures the one-time flattening cost paid between the
// passes — the price of the sealed form's pass-2 wins.
func BenchmarkSeal(b *testing.B) {
	tr := recountSetup(b, "dense").trie()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sl := tr.Seal(); sl.Candidates() != tr.Candidates() {
			b.Fatal("bad seal")
		}
	}
}
