package lexorder

import (
	"math/rand"
	"strconv"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
)

func benchDB(n, m, avgLen int) *dataset.DB {
	rng := rand.New(rand.NewSource(3))
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		l := 1 + rng.Intn(2*avgLen)
		t := make(dataset.Transaction, 0, l)
		for j := 0; j < l; j++ {
			t = append(t, dataset.Item(rng.Intn(m)))
		}
		tx[i] = t
	}
	db := dataset.New(tx)
	db.Normalize()
	return db
}

// The P1 preprocessing cost that Figure 8's Lex bars pay; its growth with
// n is the paper's DS4 lesson.
func BenchmarkApply(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		db := benchDB(n, 500, 12)
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lexed, _ := Apply(db)
				if lexed.Len() != db.Len() {
					b.Fatal("lost transactions")
				}
			}
		})
	}
}

// BenchmarkFrequent times the P1 layout the tuned kernels build before
// mining: the repository benchmark's quest4k corpus at its mine-dense
// support, and one chunk of its mine-ooc corpus — 230 Zipf documents over
// a 10,000-term vocabulary — at the corpus support scaled to the chunk.
func BenchmarkFrequent(b *testing.B) {
	for _, c := range []struct {
		name   string
		db     *dataset.DB
		minsup int
	}{
		{"quest4k", gen.Quest(gen.QuestConfig{Transactions: 4000, AvgLen: 20, AvgPatternLen: 6, Items: 400, Patterns: 80, Seed: 11}), 80},
		{"ooc-chunk", gen.Corpus(gen.CorpusConfig{Docs: 230, Vocab: 10000, AvgLen: 10, ZipfS: 1.1, Seed: 13}), 7},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if lexed, _ := Frequent(c.db, c.minsup); lexed.Len() == 0 {
					b.Fatal("no frequent items")
				}
			}
		})
	}
}

func BenchmarkDiscontinuities(b *testing.B) {
	db := benchDB(4000, 500, 12)
	for i := 0; i < b.N; i++ {
		if Discontinuities(db) < 0 {
			b.Fatal("impossible")
		}
	}
}

func itoa(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(n)
}
