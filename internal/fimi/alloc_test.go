package fimi

// Allocation-regression tests for the zero-allocation streaming work (see
// EXPERIMENTS.md, "Layout patterns on the production paths"): the per-line
// tokenizer must not allocate when given a scratch buffer, and the chunked
// reader's per-chunk marginal allocation cost must be zero once its arena
// has warmed up — allocations must not scale with the number of
// transactions or chunks.

import (
	"bytes"
	"testing"

	"fpm/internal/dataset"
)

func TestParseLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	line := []byte("12 345 6789 0 42 2147483647 7 7 19")
	scratch := make(dataset.Transaction, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		tx, err := parseLine(line, scratch[:0])
		if err != nil || len(tx) != 9 {
			t.Fatalf("parseLine = %v, %v", tx, err)
		}
	}); n != 0 {
		t.Fatalf("parseLine allocates %.1f times per line, want 0", n)
	}
}

// TestReadChunksAllocs pins the O(1)-per-chunk allocation property: a
// stream with 8× the transactions (and thus ~8× the chunks at the same
// budget) must not cost measurably more allocations per call — the arena
// and chunk table are reused, so the marginal cost of a chunk is zero.
func TestReadChunksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 8 << 10
	run := func(data []byte, want int) float64 {
		return testing.AllocsPerRun(5, func() {
			got := 0
			err := ReadChunks(bytes.NewReader(data), budget, func(chunk *dataset.DB) error {
				got += chunk.Len()
				return nil
			})
			if err != nil || got != want {
				t.Fatalf("ReadChunks: %d transactions, err %v", got, err)
			}
		})
	}
	small := run(benchCorpus(1000, 12, 500, 3), 1000)
	large := run(benchCorpus(8000, 12, 500, 3), 8000)
	// Identical line-length distribution and budget give both runs the
	// same steady-state arena; the slack absorbs growth-path noise.
	if large > small+8 {
		t.Fatalf("allocations scale with input: %.0f for 1000 tx vs %.0f for 8000 tx", small, large)
	}
}

// TestReadAllocs pins Read's allocations to the logarithm of its input:
// every line is parsed into one growing arena, so 8× the lines may cost
// more growths of the arena (three doublings) and of the line table
// (append grows a large slice by about 1.25×, about ten growths per 8×),
// but not one allocation per line. One slice per line cost 3,775
// allocations for 1,000 lines and 29,874 for 8,000 (go1.24,
// linux/amd64).
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	run := func(data []byte, want int) float64 {
		return testing.AllocsPerRun(5, func() {
			db, err := Read(bytes.NewReader(data))
			if err != nil || db.Len() != want {
				t.Fatalf("Read: %d transactions, err %v", db.Len(), err)
			}
		})
	}
	small := run(benchCorpus(1000, 12, 500, 3), 1000)
	large := run(benchCorpus(8000, 12, 500, 3), 8000)
	t.Logf("allocations per Read: %.0f for 1000 lines, %.0f for 8000", small, large)
	if large > small+16 {
		t.Fatalf("allocations scale with input: %.0f for 1000 lines vs %.0f for 8000", small, large)
	}
}
