package servecache

// Concurrency storm for the caches, run under -race in CI. The dataset
// storm hammers a deliberately tiny cache with mixed hot/cold acquires
// plus concurrent Shed calls, pinning the cache's core safety claim: a
// handle is never observed evicted while its reference is held, and the
// DB behind it stays readable for the full hold. The result storm mixes
// concurrent Insert/Serve/Shed on overlapping keys.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/fimi"
	"fpm/internal/mine"
)

func TestDatasetCacheStormNoEvictWhileHeld(t *testing.T) {
	dir := t.TempDir()
	// Two hot files plus a spread of cold ones, and a cap that holds only
	// ~3 parsed DBs — eviction churns constantly under the storm.
	paths := make([]string, 10)
	for i := range paths {
		paths[i] = writeFIMI(t, dir, fmt.Sprintf("f%02d.dat", i), 20+3*i)
	}
	db0, err := fimi.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	c := NewDatasetCache(3 * fimi.DBBytes(db0))

	const workers = 12
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				var path string
				if rng.Intn(3) > 0 { // hot keys two thirds of the time
					path = paths[rng.Intn(2)]
				} else {
					path = paths[2+rng.Intn(len(paths)-2)]
				}
				e, _, err := c.Acquire(path)
				if err != nil {
					t.Errorf("acquire %s: %v", path, err)
					return
				}
				// The invariant: while this reference is held, the entry is
				// never evicted and its DB stays fully readable.
				if e.Evicted() {
					t.Error("entry observed evicted while ref-held")
				}
				if e.DB == nil || e.DB.Len() == 0 {
					t.Error("held entry lost its DB")
				}
				var items int
				for _, tx := range e.DB.Tx {
					items += len(tx)
				}
				if items == 0 {
					t.Error("held DB unreadable")
				}
				if e.Evicted() {
					t.Error("entry evicted mid-read while ref-held")
				}
				if rng.Intn(8) == 0 {
					c.Shed(1 << 20) // concurrent eviction pressure
				}
				c.Release(e)
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	s := c.Stats()
	if s.Misses == 0 || s.Hits == 0 {
		t.Fatalf("storm exercised nothing: %+v", s)
	}
	if s.Evictions == 0 && s.Skipped == 0 {
		t.Fatalf("storm never hit the cap: %+v", s)
	}
	// Quiescent: every ref released, so everything is sheddable and the
	// accounting must return to zero.
	c.Shed(1 << 62)
	if got := c.Resident(); got != 0 {
		t.Fatalf("resident %d after full shed at quiescence (accounting leak)", got)
	}
}

func TestResultCacheStorm(t *testing.T) {
	one := func(n int) []mine.Itemset {
		out := make([]mine.Itemset, n)
		for i := range out {
			out[i] = mine.Itemset{Items: []dataset.Item{dataset.Item(i + 1)}, Support: 10 - i%5}
		}
		return out
	}
	c := NewResultCache(8 * setsBytes(Canonicalize(one(20))))
	keys := make([]ResultKey, 6)
	for i := range keys {
		keys[i] = ResultKey{ID: durable.Identity{Size: int64(i + 1), Hash: uint64(i)}, Algo: "lcm"}
	}

	const workers = 10
	iters := 400
	if testing.Short() {
		iters = 80
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				key := keys[rng.Intn(len(keys))]
				switch rng.Intn(4) {
				case 0:
					c.Insert(key, 2+rng.Intn(6), one(5+rng.Intn(20)))
				case 1:
					c.Shed(64)
				default:
					if sets, _, ok := c.Serve(key, 2+rng.Intn(8)); ok {
						// Served listings are immutable snapshots: they must
						// stay canonical even while writers churn the cache.
						for k := 1; k < len(sets); k++ {
							if !mine.LessItems(sets[k-1].Items, sets[k].Items) {
								t.Error("served listing not canonical")
								return
							}
						}
					}
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	c.Shed(1 << 62)
	if got := c.Resident(); got != 0 {
		t.Fatalf("resident %d after full shed at quiescence (accounting leak)", got)
	}
}
