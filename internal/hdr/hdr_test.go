package hdr

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile is the reference: sorted[ceil(q*n)-1].
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// streams returns named value distributions that between them cover the
// exact linear region (< 64), the log-bucketed region, heavy tails and
// mixtures spanning six orders of magnitude.
func streams(rng *rand.Rand, n int) map[string][]int64 {
	out := map[string][]int64{}

	uni := make([]int64, n)
	for i := range uni {
		uni[i] = rng.Int63n(50 * int64(time.Millisecond))
	}
	out["uniform-0-50ms"] = uni

	tiny := make([]int64, n)
	for i := range tiny {
		tiny[i] = rng.Int63n(64) // all in the exact region
	}
	out["tiny-exact"] = tiny

	logn := make([]int64, n)
	for i := range logn {
		v := math.Exp(rng.NormFloat64()*1.5 + 13) // median ~0.44ms, long tail
		logn[i] = int64(v)
	}
	out["lognormal"] = logn

	bimodal := make([]int64, n)
	for i := range bimodal {
		if rng.Float64() < 0.95 {
			bimodal[i] = int64(time.Millisecond) + rng.Int63n(int64(time.Millisecond))
		} else {
			bimodal[i] = int64(time.Second) + rng.Int63n(int64(time.Second))
		}
	}
	out["bimodal-fast-slow"] = bimodal

	return out
}

// TestHistQuantileAccuracy compares the histogram's quantiles against the
// exact sorted-sample quantiles on randomized streams. The histogram
// reports a bucket upper bound, so the estimate must never understate the
// exact value and must overstate it by at most the bucket width (1/32
// relative, +1 of rounding).
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, vals := range streams(rng, 20000) {
		var h Hist
		for _, v := range vals {
			h.Record(v)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		if h.Count() != uint64(len(vals)) {
			t.Fatalf("%s: Count = %d, want %d", name, h.Count(), len(vals))
		}
		if got, want := h.Quantile(1), sorted[len(sorted)-1]; got != want {
			t.Fatalf("%s: Quantile(1) = %d, want exact max %d", name, got, want)
		}
		if got, want := h.Quantile(0), sorted[0]; got != want {
			t.Fatalf("%s: Quantile(0) = %d, want exact min %d", name, got, want)
		}
		var sum int64
		for _, v := range vals {
			sum += v
		}
		if got := h.Sum(); got != sum {
			t.Fatalf("%s: Sum = %d, want exact %d", name, got, sum)
		}

		for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0} {
			got := h.Quantile(q)
			want := exactQuantile(sorted, q)
			if got < want {
				t.Errorf("%s: Quantile(%g) = %d understates exact %d", name, q, got, want)
			}
			// Bucket width bound: ≤ 1/32 relative error plus 1.
			if limit := want + want/32 + 1; got > limit {
				t.Errorf("%s: Quantile(%g) = %d overstates exact %d beyond bucket bound %d", name, q, got, want, limit)
			}
		}
	}
}

// TestHistEdgeCases: empty histograms, single values, zero and negative
// values.
func TestHistEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Quantile(1) != 0 || h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-int64(time.Second)) // clamps to 0
	if h.Quantile(0.5) != 0 || h.Quantile(1) != 0 || h.Count() != 1 {
		t.Fatalf("negative record: p50 %d, max %d, count %d", h.Quantile(0.5), h.Quantile(1), h.Count())
	}
	var one Hist
	one.Record(1234567)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := one.Quantile(q)
		if got < 1234567 || got > 1234567+1234567/32+1 {
			t.Fatalf("single-value Quantile(%g) = %d", q, got)
		}
	}
	var big Hist
	big.Record(math.MaxInt64) // must not overflow the bucket map
	if big.Quantile(1) != math.MaxInt64 {
		t.Fatalf("max-int64 record: Quantile(1) = %d", big.Quantile(1))
	}
	if got := big.Quantile(0.5); got != math.MaxInt64 {
		t.Fatalf("max-int64 quantile clamps to observed max, got %d", got)
	}
}

// TestCumulativeLE pins the contract the Prometheus histogram renderer
// builds on: against the exact sorted stream, CumulativeLE(bound) must
// count every observation ≤ bound (never undercount — the conservative
// direction for `le` buckets) and may overcount only by observations
// within one bucket width (1/32 relative, +1) above the bound. It must be
// monotonically nondecreasing in the bound, and reach Count() at the
// observed max.
func TestCumulativeLE(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, vals := range streams(rng, 20000) {
		var h Hist
		for _, v := range vals {
			h.Record(v)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		// Bounds: a fixed export-style ladder plus random draws, so both
		// round bucket edges and interior points are exercised.
		bounds := []int64{-1, 0, 1, 63, 64, 1000, int64(time.Millisecond), int64(10 * time.Millisecond), int64(time.Second), sorted[len(sorted)-1], math.MaxInt64}
		for i := 0; i < 50; i++ {
			bounds = append(bounds, sorted[rng.Intn(len(sorted))], rng.Int63n(2*int64(time.Second)))
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

		var prev uint64
		for _, b := range bounds {
			got := h.CumulativeLE(b)
			if got < prev {
				t.Fatalf("%s: CumulativeLE not monotone: le(%d) = %d < previous %d", name, b, got, prev)
			}
			prev = got
			// Exact counts ≤ b and ≤ b + b/32 + 1 bracket the answer.
			exact := uint64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > b }))
			slackBound := b
			if b >= 0 && b < math.MaxInt64-b/32-1 {
				slackBound = b + b/32 + 1
			} else if b >= 0 {
				slackBound = math.MaxInt64
			}
			slack := uint64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > slackBound }))
			if got < exact {
				t.Fatalf("%s: CumulativeLE(%d) = %d undercounts exact %d", name, b, got, exact)
			}
			if got > slack {
				t.Fatalf("%s: CumulativeLE(%d) = %d exceeds slack bound %d (exact %d)", name, b, got, slack, exact)
			}
		}
		if got := h.CumulativeLE(h.Quantile(1)); got != h.Count() {
			t.Fatalf("%s: CumulativeLE(max) = %d, want Count %d", name, got, h.Count())
		}
		if got := h.CumulativeLE(math.MaxInt64); got != h.Count() {
			t.Fatalf("%s: CumulativeLE(MaxInt64) = %d, want Count %d", name, got, h.Count())
		}
	}
}
