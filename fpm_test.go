package fpm

import (
	"bytes"
	"testing"
)

func testDB() *DB {
	db := GenerateQuest(QuestConfig{
		Transactions: 300, AvgLen: 10, AvgPatternLen: 4,
		Items: 50, Patterns: 20, Seed: 3,
	})
	return db
}

func TestMineAllAlgorithmsAgree(t *testing.T) {
	db := testDB()
	minsup := 20
	var want map[string]int
	for _, algo := range []Algorithm{LCM, Eclat, FPGrowth, Apriori} {
		sets, err := Mine(db, algo, Applicable(algo), minsup)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got := map[string]int{}
		for _, s := range sets {
			rs := ResultSet{}
			rs.Collect(s.Items, s.Support)
			for k, v := range rs {
				got[k] = v
			}
		}
		if want == nil {
			want = got
			if len(want) == 0 {
				t.Fatal("degenerate workload")
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s mined %d itemsets, want %d", algo, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %s support %d, want %d", algo, k, got[k], v)
			}
		}
	}
	// FP-Growth through a three-worker pool agrees too.
	par, err := NewParallel(3, FPGrowth, Applicable(FPGrowth))
	if err != nil {
		t.Fatal(err)
	}
	rs := ResultSet{}
	if err := par.Mine(db, minsup, rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Equal(want) {
		t.Fatalf("parallel fpgrowth disagrees: %s", rs.Diff(want, 5))
	}
}

// TestNewMinerUnknown: every entry point that resolves a kernel rejects an
// unknown name with the one error, which lists the kernel table.
func TestNewMinerUnknown(t *testing.T) {
	const want = `fpm: unknown algorithm "hmine" (valid: apriori, eclat, fpgrowth, lcm)`
	algo := Algorithm("hmine")
	_, errMiner := NewMiner(algo, 0)
	_, errPar := NewParallel(2, algo, 0)
	_, _, errObs := WithMetrics(testDB(), algo, 0, 20, 1)
	_, _, errPart := MinePartitioned("unread.dat", algo, 0, 20, 1<<20, 1)
	for name, err := range map[string]error{"NewMiner": errMiner, "NewParallel": errPar, "WithMetrics": errObs, "MinePartitioned": errPart} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", name, err, want)
		}
	}
}

func TestMineAutoRunsAndExplains(t *testing.T) {
	db := testDB()
	rec := Recommend(db, 20)
	sets, err := Mine(db, rec.Algorithm, rec.Patterns, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("the recommended configuration found nothing")
	}
	if len(rec.Rationale) == 0 {
		t.Fatal("recommendation has no rationale")
	}
	// The recommendation must be reproducible: a second Recommend picks
	// the same configuration, which mines the same sets.
	rec2 := Recommend(db, 20)
	if rec2.Algorithm != rec.Algorithm || rec2.Patterns != rec.Patterns {
		t.Fatalf("Recommend is not reproducible: %s then %s", rec, rec2)
	}
	again, err := Mine(db, rec2.Algorithm, rec2.Patterns, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(sets) {
		t.Fatalf("second run mined %d, first mined %d", len(again), len(sets))
	}
}

func TestFIMIRoundTripThroughPublicAPI(t *testing.T) {
	db := testDB()
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFIMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Mine(db, LCM, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(back, LCM, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("round-tripped database mines differently: %d vs %d", len(a), len(b))
	}
}

func TestLexOrderPublic(t *testing.T) {
	db := testDB()
	lexed, ord := LexOrder(db)
	if lexed.Len() != db.Len() {
		t.Fatal("LexOrder changed transaction count")
	}
	if ord == nil || len(ord.Orig) != db.NumItems {
		t.Fatal("missing ordering")
	}
	// Mining the lex layout with restored labels equals mining the
	// original.
	a, _ := Mine(db, Eclat, 0, 20)
	b, _ := Mine(lexed, Eclat, 0, 20)
	if len(a) != len(b) {
		t.Fatalf("lex layout mines %d itemsets, original %d", len(b), len(a))
	}
}

func TestStatsAndMachines(t *testing.T) {
	s := ComputeStats(testDB())
	if s.Transactions != 300 || s.AvgLen <= 0 {
		t.Fatalf("stats: %+v", s)
	}
	if M1().L1.SizeBytes >= M2().L1.SizeBytes {
		t.Fatal("machine models swapped")
	}
}

func TestTable6DatasetsPublic(t *testing.T) {
	sets := Table6Datasets(0.001, 9)
	if len(sets) != 4 {
		t.Fatalf("got %d datasets", len(sets))
	}
	for _, d := range sets {
		if err := d.DB.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// A checkpoint only means something to MinePartitioned; the in-memory
// entry points must refuse it rather than drop it.
func TestInMemoryRejectsCheckpoint(t *testing.T) {
	for _, opt := range []ParallelOption{WithCheckpoint("db.fpmck", false), WithCheckpoint("db.fpmck", true)} {
		if _, _, err := WithMetrics(testDB(), LCM, 0, 20, 1, opt); err == nil {
			t.Error("WithMetrics accepted WithCheckpoint")
		}
		if _, err := NewParallel(2, LCM, 0, opt); err == nil {
			t.Error("NewParallel accepted WithCheckpoint")
		}
	}
}
