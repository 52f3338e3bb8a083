// Package tune implements the paper's stated future work (§6): "the
// problem of selecting an optimal set of transformations, given the input
// and machine parameters". It turns the qualitative guidance of §4.4 into
// an executable rule set over dataset statistics and machine
// configuration:
//
//   - software prefetch and aggregation work better for long linked data
//     structures (longer average transactions → deeper FP-trees);
//   - lexicographic ordering works better when the input transaction
//     order is random (low clustering) and is very expensive when the
//     transaction count is huge;
//   - tiling works better when the transactions are clustered (more
//     cache reuse) and when the L1 is small relative to the database;
//   - SIMDization pays off in proportion to the machine's vector
//     throughput;
//   - no single algorithm dominates: the vertical bit-matrix (Eclat)
//     wins on dense high-support inputs, the array/tree miners on sparse
//     ones.
package tune

import (
	"fmt"

	"fpm/internal/dataset"
	"fpm/internal/memsim"
	"fpm/internal/mine"
)

// Recommendation is a tuned configuration for one input/machine pair.
type Recommendation struct {
	Algorithm mine.Algorithm
	Patterns  mine.PatternSet
	// Rationale holds one human-readable line per decision.
	Rationale []string
}

// Thresholds collects the decision boundaries; exposed so they can be
// recalibrated against measured sweeps (see the package tests, which
// validate recommendations against the simulator's measured best).
type Thresholds struct {
	// DenseDensity is the matrix density above which the vertical
	// bit-matrix representation (Eclat) is preferred.
	DenseDensity float64
	// RelSupportDense is the relative support (minsup/transactions) above
	// which Eclat's pruning keeps the bit-matrix small enough to win.
	RelSupportDense float64
	// LongTxLen is the average transaction length from which linked
	// structures become deep enough for prefetch/aggregation to pay.
	LongTxLen float64
	// RandomClustering is the adjacent-transaction similarity below which
	// the input order counts as random (lex ordering has headroom).
	RandomClustering float64
	// ManyTransactions is the transaction count beyond which the
	// lexicographic reorder's n·log n cost outweighs its benefit.
	ManyTransactions int
	// SIMDWorthwhile is the minimum vector throughput (ops/cycle) for
	// SIMDization to be recommended.
	SIMDWorthwhile float64
}

// DefaultThresholds returns boundaries calibrated on the Table 6 datasets
// and the M1/M2 machine models.
func DefaultThresholds() Thresholds {
	return Thresholds{
		DenseDensity:     0.02,
		RelSupportDense:  0.05,
		LongTxLen:        25,
		RandomClustering: 0.15,
		ManyTransactions: 1_000_000,
		SIMDWorthwhile:   0.5,
	}
}

// Recommend selects an algorithm and pattern set for the given input
// statistics, support threshold and machine, using DefaultThresholds.
func Recommend(s dataset.Stats, minSupport int, cfg memsim.Config) Recommendation {
	return RecommendWith(s, minSupport, cfg, DefaultThresholds())
}

// RecommendWith is Recommend with explicit thresholds.
func RecommendWith(s dataset.Stats, minSupport int, cfg memsim.Config, th Thresholds) Recommendation {
	var r Recommendation
	relSup := 0.0
	if s.Transactions > 0 {
		relSup = float64(minSupport) / float64(s.Transactions)
	}

	// --- Algorithm choice -------------------------------------------
	if s.Density >= th.DenseDensity && relSup >= th.RelSupportDense {
		r.Algorithm = mine.Eclat
		r.say("dense matrix (%.3f) at high relative support (%.3f): vertical bit-matrix miner", s.Density, relSup)
	} else {
		r.Algorithm = mine.LCM
		r.say("sparse or low-support input: horizontal array miner")
	}

	// --- Pattern selection -------------------------------------------
	applicable := mine.Applicable(r.Algorithm)

	lexOK := s.Clustering < th.RandomClustering
	if s.Transactions >= th.ManyTransactions {
		lexOK = false
		r.say("%d transactions: lexicographic reorder cost outweighs locality benefit", s.Transactions)
	}
	if lexOK && applicable.Has(mine.Lex) {
		r.Patterns = r.Patterns.With(mine.Lex)
		r.say("random input order (clustering %.3f): lexicographic ordering", s.Clustering)
	}

	if r.Algorithm == mine.Eclat {
		if cfg.SIMDOpsPerCycle >= th.SIMDWorthwhile && applicable.Has(mine.SIMD) {
			r.Patterns = r.Patterns.With(mine.SIMD)
			r.say("vector throughput %.1f ops/cycle: SIMDized AND+popcount", cfg.SIMDOpsPerCycle)
		}
		return r
	}

	// Data structure reorganisation is cheap and broadly beneficial for
	// the memory-bound kernels.
	if applicable.Has(mine.Compact) {
		r.Patterns = r.Patterns.With(mine.Compact)
		r.say("memory-bound kernel: compacted frequency counters")
	}
	if applicable.Has(mine.Aggregate) && s.AvgLen >= th.LongTxLen/2 {
		r.Patterns = r.Patterns.With(mine.Aggregate)
		r.say("linked-list buckets long enough to aggregate (avg len %.1f)", s.AvgLen)
	}

	dbBytes := float64(s.Transactions) * s.AvgLen * 4
	if applicable.Has(mine.Tile) && dbBytes > float64(cfg.L1.SizeBytes) && s.Density >= th.DenseDensity/4 {
		r.Patterns = r.Patterns.With(mine.Tile)
		r.say("database (%.0f KB) exceeds L1 (%d KB) with reuse available: tiling", dbBytes/1024, cfg.L1.SizeBytes>>10)
	}

	if applicable.Has(mine.Prefetch) && s.AvgLen >= th.LongTxLen/4 {
		r.Patterns = r.Patterns.With(mine.Prefetch)
		r.say("latency-bound traversal: wave-front software prefetch")
	}
	return r
}

func (r *Recommendation) say(format string, args ...any) {
	r.Rationale = append(r.Rationale, fmt.Sprintf(format, args...))
}

// String summarises the recommendation.
func (r Recommendation) String() string {
	return fmt.Sprintf("%s with %s", r.Algorithm, r.Patterns)
}
