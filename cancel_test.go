package fpm

// Cancellation latency tests: every mining mode — the four sequential
// kernels, the work-stealing pool at 1 and 4 workers, and the out-of-core
// partitioned path — must return a wrapped context.Canceled within a
// bounded time of the context being cancelled, leak no goroutines, and
// (when checkpointing) leave no torn sidecar. The corpus is the skewed
// benchmark workload, large enough that an uncancelled mine vastly
// outlives the cancellation point; if a machine ever finishes it before
// the timer fires (or within the latency budget after it), the test skips
// rather than asserting on a race.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fpm/internal/fimi"
	"fpm/internal/partition"
)

const (
	// cancelDelay is how long each run mines before the context is
	// cancelled; cancelBound is the latency budget from that moment to
	// Mine returning. The bound is generous for -race CI boxes — real
	// latency is microseconds (one atomic load per recursion node).
	cancelDelay = 30 * time.Millisecond
	cancelBound = 2 * time.Second

	// cancelSeqSupport is the support of the sequential-kernel runs. At
	// benchSkewSupport eclat's bit-matrix kernel finishes the skewed
	// corpus in about 20 ms on one core, before cancelDelay; at 150 every
	// kernel runs several times past it (eclat about 100 ms, lcm and
	// fpgrowth about 200 ms, apriori about a minute).
	cancelSeqSupport = 150
)

// assertNoGoroutineGrowth polls until the goroutine count returns to its
// pre-run level (+1 slack for runtime helpers); cancellation must join
// every pool worker.
func assertNoGoroutineGrowth(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertCancelsPromptly runs mineFn with a context cancelled after
// cancelDelay and asserts the wrapped error, the latency bound and no
// goroutine growth.
func assertCancelsPromptly(t *testing.T, mineFn func(ctx context.Context) error) {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	var cancelledAt atomic.Int64
	timer := time.AfterFunc(cancelDelay, func() {
		cancelledAt.Store(time.Now().UnixNano())
		cancelRun()
	})
	err := mineFn(ctx)
	if err == nil {
		timer.Stop()
		// A run that ignores the flag completes too, but only long after
		// the cancellation.
		if at := cancelledAt.Load(); at != 0 && time.Since(time.Unix(0, at)) > cancelBound {
			t.Fatalf("ran to completion %v after cancellation, budget %v", time.Since(time.Unix(0, at)), cancelBound)
		}
		t.Skipf("mine completed in under %v; corpus too small for this machine", cancelDelay)
	}
	latency := time.Since(time.Unix(0, cancelledAt.Load()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	if latency > cancelBound {
		t.Fatalf("returned %v after cancellation, budget %v", latency, cancelBound)
	}
	assertNoGoroutineGrowth(t, before)
}

// TestCancelSequentialKernels: lcm, eclat and fpgrowth poll the flag at
// recursion nodes on a sequential observed run (workers == 1), apriori once
// per level and inside its counting scans. All must surface
// *CancelledError.
func TestCancelSequentialKernels(t *testing.T) {
	benchSkewSetup()
	for _, algo := range []Algorithm{LCM, Eclat, FPGrowth, Apriori} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			assertCancelsPromptly(t, func(ctx context.Context) error {
				sets, _, err := WithMetrics(benchSkew, algo, Applicable(algo), cancelSeqSupport, 1, WithContext(ctx))
				if err == nil && len(sets) == 0 {
					t.Fatal("completed run found nothing: degenerate corpus")
				}
				var ce *CancelledError
				if err != nil && !errors.As(err, &ce) {
					t.Fatalf("error %T does not wrap *CancelledError", err)
				}
				return err
			})
		})
	}
}

// TestCancelParallel: the pool must drain queued tasks and join all
// workers within the bound, at both ends of the worker-count range. The
// observed path threads the flag into the kernels, so latency is
// node-granular, and the CancelledError carries the partial-progress
// snapshot.
func TestCancelParallel(t *testing.T) {
	benchSkewSetup()
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			assertCancelsPromptly(t, func(ctx context.Context) error {
				_, _, err := WithMetrics(benchSkew, LCM, 0, benchSkewSupport, workers, WithContext(ctx))
				var ce *CancelledError
				if err != nil {
					if !errors.As(err, &ce) {
						t.Fatalf("error %T does not wrap *CancelledError", err)
					}
					if ce.Progress.Kernel == "" {
						t.Fatal("CancelledError.Progress carries no run identity")
					}
				}
				return err
			})
		})
	}
	// The plain NewParallel path (no recorder): split kernels poll the
	// pool flag at every subtree offer point.
	t.Run("newparallel-4", func(t *testing.T) {
		assertCancelsPromptly(t, func(ctx context.Context) error {
			m, err := NewParallel(4, LCM, 0, WithContext(ctx))
			if err != nil {
				t.Fatal(err)
			}
			var cc CountCollector
			return m.Mine(benchSkew, benchSkewSupport, &cc)
		})
	})
}

// TestCancelPartitioned: the out-of-core path must stop at the next chunk
// boundary (or inside a chunk, node-granularly) and leave its checkpoint
// sidecar whole for a later resume — no torn files, no temp leftovers.
func TestCancelPartitioned(t *testing.T) {
	benchSkewSetup()
	dir := t.TempDir()
	path := filepath.Join(dir, "skew.dat")
	if err := WriteFIMIFile(path, benchSkew); err != nil {
		t.Fatal(err)
	}
	est := fimi.DBBytes(benchSkew)
	ckpt := filepath.Join(dir, "skew.fpmck")
	assertCancelsPromptly(t, func(ctx context.Context) error {
		_, _, err := MinePartitioned(path, LCM, 0, benchSkewSupport,
			8*est/6, 2, WithCheckpoint(ckpt, false), WithContext(ctx))
		var ce *CancelledError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("error %T does not wrap *CancelledError", err)
		}
		return err
	})
	if _, err := os.Stat(ckpt); err == nil {
		if _, derr := partition.LoadCheckpoint(ckpt); derr != nil {
			t.Fatalf("cancelled run left a torn sidecar: %v", derr)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("cancelled run left a temp checkpoint: %v", err)
	}
}

// TestCancelUncancelled: a background context adds no failure mode —
// results equal plain Mine, and a deadline that never fires behaves the
// same.
func TestCancelUncancelled(t *testing.T) {
	db := GenerateQuest(QuestConfig{Transactions: 300, AvgLen: 8, AvgPatternLen: 3,
		Items: 40, Patterns: 20, Seed: 7})
	want, err := Mine(db, LCM, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := WithMetrics(db, LCM, 0, 6, 1, WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if canonListing(got) != canonListing(want) {
		t.Fatal("WithContext(Background) diverges from Mine")
	}
	ctx, cancelRun := context.WithTimeout(context.Background(), time.Hour)
	defer cancelRun()
	got, _, err = WithMetrics(db, Eclat, 0, 6, 1, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := Mine(db, Eclat, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if canonListing(got) != canonListing(wantE) {
		t.Fatal("WithContext(unexpired deadline) diverges from Mine")
	}
}

// TestCancelDeadline: an already-expired deadline surfaces as a wrapped
// context.DeadlineExceeded before any real work happens.
func TestCancelDeadline(t *testing.T) {
	db := GenerateQuest(QuestConfig{Transactions: 300, AvgLen: 8, AvgPatternLen: 3,
		Items: 40, Patterns: 20, Seed: 7})
	ctx, cancelRun := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelRun()
	time.Sleep(time.Millisecond)
	_, _, err := WithMetrics(db, LCM, 0, 6, 1, WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want wrapped context.DeadlineExceeded", err)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T does not wrap *CancelledError", err)
	}
}
