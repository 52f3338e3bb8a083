package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fpm/internal/apriori"
	"fpm/internal/dataset"
	"fpm/internal/eclat"
	"fpm/internal/fpgrowth"
	"fpm/internal/gen"
	"fpm/internal/lcm"
	"fpm/internal/mine"
)

func lcmFactory() mine.Splitter { return lcm.New(lcm.Options{}) }

// kernelFactories covers all four kernels: three that split through their
// own recursion (lcm, eclat, fpgrowth) and Apriori, which never offers and
// runs as the one root task. The splitting kernels also run with every
// applicable pattern, so stealing meets their tuned paths: Lex, LCM's
// tiled root, the clone of a stolen child out of LCM's depth storage,
// Eclat's vector free list and the copy of an offered FP-Growth base out
// of the shared flat buffer.
func kernelFactories() map[string]func() mine.Splitter {
	return map[string]func() mine.Splitter{
		"lcm":         lcmFactory,
		"lcm-tuned":   func() mine.Splitter { return lcm.New(lcm.Options{Patterns: mine.Applicable(mine.LCM)}) },
		"eclat":       func() mine.Splitter { return eclat.New(eclat.Options{}) },
		"eclat-tuned": func() mine.Splitter { return eclat.New(eclat.Options{Patterns: mine.Applicable(mine.Eclat)}) },
		"fpgrowth":    func() mine.Splitter { return fpgrowth.New(fpgrowth.Options{}) },
		"fpgrowth-tuned": func() mine.Splitter {
			return fpgrowth.New(fpgrowth.Options{Patterns: mine.Applicable(mine.FPGrowth)})
		},
		"apriori": func() mine.Splitter { return apriori.New(apriori.Options{}) },
	}
}

func testDB() *dataset.DB {
	return gen.Quest(gen.QuestConfig{Transactions: 600, AvgLen: 12, AvgPatternLen: 4, Items: 60, Patterns: 25, Seed: 99})
}

// TestMatchesSequentialAllKernels asserts that every kernel wrapped in the
// scheduler produces exactly the sequential result set, for 1, 2, 4 and
// GOMAXPROCS workers. Run under -race this also exercises the stealing
// paths of the three splitting kernels.
func TestMatchesSequentialAllKernels(t *testing.T) {
	db := testDB()
	minsup := 30
	for name, factory := range kernelFactories() {
		t.Run(name, func(t *testing.T) {
			want := mine.ResultSet{}
			if err := factory().Mine(db, minsup, want); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("degenerate workload")
			}
			for _, workers := range []int{1, 2, 4, 0} {
				// Cutoff 1 forces spawning whenever the pool is starved,
				// maximising scheduler traffic.
				m := New(Options{Workers: workers, Cutoff: 1}, factory)
				rs := mine.ResultSet{}
				if err := m.Mine(db, minsup, rs); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !rs.Equal(want) {
					t.Fatalf("workers=%d disagrees:\n%s", workers, rs.Diff(want, 8))
				}
			}
		})
	}
}

// TestCanonicalItemOrder asserts the mine.Collector contract where it is
// made: every itemset each kernel emits has its items strictly ascending,
// both sequentially and when stolen subtrees run on other workers. The
// pool does not reorder items, so a kernel that breaks the order fails
// here.
func TestCanonicalItemOrder(t *testing.T) {
	db := testDB()
	for name, factory := range kernelFactories() {
		t.Run(name, func(t *testing.T) {
			for _, run := range []string{"sequential", "workers-4"} {
				var sc mine.SliceCollector
				var err error
				if run == "sequential" {
					err = factory().MineSplit(db, 30, &sc, nil)
				} else {
					err = New(Options{Workers: 4, Cutoff: 1}, factory).Mine(db, 30, &sc)
				}
				if err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				multi := 0
				for _, s := range sc.Sets {
					for i := 1; i < len(s.Items); i++ {
						if s.Items[i-1] >= s.Items[i] {
							t.Fatalf("%s: non-canonical itemset %v", run, s.Items)
						}
					}
					if len(s.Items) > 1 {
						multi++
					}
				}
				if multi == 0 {
					t.Fatalf("%s: no multi-item sets mined; ordering untested", run)
				}
			}
		})
	}
}

// mineOrTimeout runs m.Mine and fails the test if it does not return —
// the zero-seeded-task deadlock manifests as a hang, not an error.
func mineOrTimeout(t *testing.T, m *Miner, db *dataset.DB, minSupport int, c mine.Collector) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Mine(db, minSupport, c) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Mine did not return (scheduler deadlock)")
		return nil
	}
}

func TestEdgeCases(t *testing.T) {
	m := New(Options{Workers: 2}, lcmFactory)
	if err := m.Mine(dataset.New(nil), 1, mine.ResultSet{}); err != nil {
		t.Fatalf("empty DB: %v", err)
	}
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}}), 0, mine.ResultSet{}); err == nil {
		t.Fatal("minSupport 0 accepted")
	}
	// minSupport above every item frequency: no results, no error, no
	// hang — for every kernel.
	db := dataset.New([]dataset.Transaction{{0, 1}, {1, 2}, {0, 2}})
	for name, factory := range kernelFactories() {
		m := New(Options{Workers: 2}, factory)
		rs := mine.ResultSet{}
		if err := mineOrTimeout(t, m, db, 100, rs); err != nil {
			t.Fatalf("%s high support: %v", name, err)
		}
		if len(rs) != 0 {
			t.Fatalf("%s high support mined %d sets", name, len(rs))
		}
	}
}

// TestNameCached asserts the satellite fix: Name must not construct a
// throwaway miner per call — the factory runs exactly once, at New time.
func TestNameCached(t *testing.T) {
	var calls atomic.Int32
	factory := func() mine.Splitter {
		calls.Add(1)
		return lcm.New(lcm.Options{})
	}
	m := New(Options{Workers: 2}, factory)
	after := calls.Load()
	if m.Name() != "parallel(lcm(baseline))" {
		t.Fatalf("name = %q", m.Name())
	}
	_ = m.Name()
	_ = m.Name()
	if calls.Load() != after {
		t.Fatalf("Name() invoked the factory (%d calls after New's %d)", calls.Load(), after)
	}
}

// failingMiner errors on every non-trivial mine call.
type failingMiner struct{}

func (failingMiner) Name() string { return "failing" }
func (failingMiner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return errors.New("boom")
}
func (failingMiner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	return errors.New("boom")
}

func TestErrorPropagationWithoutDeadlock(t *testing.T) {
	// A failing root task must not deadlock the idle workers, and its
	// error must surface.
	db := gen.Quest(gen.QuestConfig{Transactions: 200, AvgLen: 10, AvgPatternLen: 3, Items: 40, Patterns: 15, Seed: 5})
	m := New(Options{Workers: 3}, func() mine.Splitter { return failingMiner{} })
	err := m.Mine(db, 5, mine.ResultSet{})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

// splitFailMiner is a Splitter whose spawned tasks fail with distinct
// errors mid-stream; it checks first-error capture and prompt
// cancellation on the work-stealing path.
type splitFailMiner struct {
	ran *atomic.Int32
}

func (splitFailMiner) Name() string { return "splitfail" }
func (s splitFailMiner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return s.MineSplit(db, minSupport, c, nil)
}
func (s splitFailMiner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	for i := 0; i < 64; i++ {
		i := i
		task := func(c mine.Collector, sp mine.Spawner) error {
			s.ran.Add(1)
			return fmt.Errorf("task %d failed", i)
		}
		if sp == nil || !sp.Offer(1, task) {
			if err := task(c, sp); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSplitterErrorFirstWinsAndStops(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0}})
	var ran atomic.Int32
	m := New(Options{Workers: 4, Cutoff: 1}, func() mine.Splitter { return splitFailMiner{ran: &ran} })
	err := m.Mine(db, 1, mine.ResultSet{})
	if err == nil {
		t.Fatal("no error propagated")
	}
	// Cancellation must stop the remaining queued tasks: far fewer than
	// the 64 offered tasks may actually run.
	if n := ran.Load(); n >= 64 {
		t.Fatalf("all %d tasks ran despite first failing", n)
	}
}

// Property: parallel equals brute force on random small inputs.
func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 20, 8, 6)
		minsup := 1 + rng.Intn(4)
		want := mine.ResultSet{}
		if err := (mine.BruteForce{}).Mine(db, minsup, want); err != nil {
			return false
		}
		rs := mine.ResultSet{}
		if err := New(Options{Workers: 3, Cutoff: 1}, lcmFactory).Mine(db, minsup, rs); err != nil {
			return false
		}
		if !rs.Equal(want) {
			t.Logf("seed %d minsup %d:\n%s", seed, minsup, rs.Diff(want, 5))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randomDB(rng *rand.Rand, n, m, maxLen int) *dataset.DB {
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		l := rng.Intn(maxLen + 1)
		tr := make(dataset.Transaction, 0, l)
		for j := 0; j < l; j++ {
			tr = append(tr, dataset.Item(rng.Intn(m)))
		}
		tx[i] = tr
	}
	db := dataset.New(tx)
	if db.NumItems < m {
		db.NumItems = m
	}
	db.Normalize()
	return db
}
