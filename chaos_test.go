package fpm

// Chaos differential test: the robustness acceptance net. Each randomized
// corpus is mined out-of-core while the failpoint registry injects the
// failures a production run would meet — a crash between pass-1 chunks, a
// crash between pass-2 recount chunks, I/O errors and short reads under
// the FIMI readers, worker panics inside the scheduler, failing checkpoint
// writes, and context cancellation — in randomized kill/resume cycles.
// After every interrupted round the sidecar must still decode cleanly (the
// atomic temp-file + rename discipline means a crash can tear nothing),
// and the final resumed run must produce a canonical listing byte-identical
// to the clean in-memory answer. CI runs this under -race -short.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fpm/internal/failpoint"
	"fpm/internal/fimi"
	"fpm/internal/partition"
)

// chaosFault is one injectable failure mode; arm installs it into a fresh
// registry. assertEqualOnSuccess is false for faults that silently change
// the observed input (short reads): a run that "completes" under them saw a
// truncated dataset, so its output is discarded rather than compared.
type chaosFault struct {
	name                 string
	needsPool            bool
	assertEqualOnSuccess bool
	arm                  func(reg *failpoint.Registry, rng *rand.Rand, est int64)
}

var errChaosCrash = errors.New("chaos: injected crash")

var chaosFaults = []chaosFault{
	{name: "pass1-crash", assertEqualOnSuccess: true,
		arm: func(reg *failpoint.Registry, rng *rand.Rand, est int64) {
			reg.FailAfter(failpoint.PartitionChunkMine, rng.Intn(3), errChaosCrash)
		}},
	{name: "pass2-crash", assertEqualOnSuccess: true,
		arm: func(reg *failpoint.Registry, rng *rand.Rand, est int64) {
			reg.FailAfter(failpoint.PartitionRecountChunk, rng.Intn(2), errChaosCrash)
		}},
	{name: "read-error", assertEqualOnSuccess: true,
		arm: func(reg *failpoint.Registry, rng *rand.Rand, est int64) {
			reg.Fail(failpoint.FimiRead, errChaosCrash)
		}},
	{name: "short-read", assertEqualOnSuccess: false,
		arm: func(reg *failpoint.Registry, rng *rand.Rand, est int64) {
			// Truncate the stream somewhere inside the file. The run may
			// fail (mid-line truncation) or "succeed" on the shorter
			// dataset; either way the checkpoint identity (TotalTx) stops a
			// later resume from trusting its progress.
			reg.ShortRead(failpoint.FimiRead, 1+rng.Int63n(est))
		}},
	{name: "worker-panic", needsPool: true, assertEqualOnSuccess: true,
		arm: func(reg *failpoint.Registry, rng *rand.Rand, est int64) {
			reg.Panic(failpoint.ParallelWorkerTask, rng.Intn(4), "chaos")
		}},
	{name: "checkpoint-write-fail", assertEqualOnSuccess: true,
		arm: func(reg *failpoint.Registry, rng *rand.Rand, est int64) {
			reg.Fail(failpoint.PartitionCheckpointWrite, errChaosCrash)
		}},
}

// assertSidecarIntact fails the test when the checkpoint sidecar is torn:
// if the file exists it must decode, and no temp file may linger.
func assertSidecarIntact(t *testing.T, ckpt string) {
	t.Helper()
	if _, err := os.Stat(ckpt); err == nil {
		if _, derr := partition.LoadCheckpoint(ckpt); derr != nil {
			t.Fatalf("sidecar torn after interrupted run: %v", derr)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp checkpoint left behind: %v", err)
	}
}

// TestChaosKillResumeDifferential drives 30 randomized corpora through
// randomized fault/kill/resume cycles and asserts the survivors of every
// storm equal the clean answer, byte for byte. The failpoint registry is
// process-global, so this test never runs in parallel with others.
func TestChaosKillResumeDifferential(t *testing.T) {
	defer failpoint.Disable()
	rng := rand.New(rand.NewSource(20260809))
	algos := []Algorithm{LCM, Eclat, FPGrowth}
	var chunksSkipped, faultyRounds uint64

	for i, tc := range partCases(30) {
		tc := tc
		workers := 1
		if i%2 == 1 {
			workers = 4
		}
		algo := algos[i%len(algos)]
		t.Run(fmt.Sprintf("%s-%s-w%d", tc.name, algo, workers), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "db.dat")
			if err := WriteFIMIFile(path, tc.db); err != nil {
				t.Fatal(err)
			}
			est := fimi.DBBytes(tc.db)
			budget := 8 * est / 3 // a few chunks
			if rng.Intn(2) == 1 {
				budget = 8 * est / 16 // many chunks
			}
			inMem, err := Mine(tc.db, algo, Applicable(algo), tc.minsup)
			if err != nil {
				t.Fatal(err)
			}
			want := canonListing(inMem)
			ckpt := filepath.Join(dir, "db.fpmck")

			run := func(ctx context.Context) ([]Itemset, PartitionSnapshot, error) {
				return MinePartitioned(path, algo, Applicable(algo), tc.minsup,
					budget, workers, WithCheckpoint(ckpt, true), parallelCutoff(64), WithContext(ctx))
			}

			// Fault rounds: each arms one failure mode, runs, and checks
			// the wreckage is sane. Interleave an occasional cancellation
			// "kill" between them.
			for round, nRounds := 0, 1+rng.Intn(3); round < nRounds; round++ {
				if rng.Intn(4) == 0 {
					ctx, cancelRun := context.WithCancel(context.Background())
					cancelRun() // cancelled before the first chunk: a kill -9 stand-in
					if _, _, err := run(ctx); err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled round: %v", err)
					}
					assertSidecarIntact(t, ckpt)
				}
				f := chaosFaults[rng.Intn(len(chaosFaults))]
				for f.needsPool && workers == 1 {
					f = chaosFaults[rng.Intn(len(chaosFaults))]
				}
				reg := failpoint.New()
				f.arm(reg, rng, est)
				failpoint.Enable(reg)
				sets, _, err := run(context.Background())
				failpoint.Disable()
				faultyRounds++
				assertSidecarIntact(t, ckpt)
				if err == nil && f.assertEqualOnSuccess {
					if got := canonListing(sets); got != want {
						t.Fatalf("round %d (%s): fault round completed with wrong output", round, f.name)
					}
				}
			}

			// The storm is over: a clean resumed run must give the exact
			// clean answer and clear the sidecar.
			sets, snap, err := run(context.Background())
			if err != nil {
				t.Fatalf("final resumed run: %v", err)
			}
			if got := canonListing(sets); got != want {
				t.Errorf("final listing differs from clean in-memory run (%d vs %d sets)",
					len(sets), len(inMem))
			}
			if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
				t.Errorf("sidecar not removed after successful run: %v", err)
			}
			chunksSkipped += snap.ChunksSkipped
		})
	}
	// Across the whole storm, resume must have actually skipped work
	// somewhere — otherwise the checkpoints were decorative and the test
	// proved less than it claims.
	if chunksSkipped == 0 {
		t.Errorf("no chunk was ever skipped on resume across %d faulty rounds", faultyRounds)
	}
}
