// Package hdr is the repo's dependency-free HDR-style log-linear
// histogram: O(1) allocation-free Record, and quantiles that never
// understate a recorded value and overstate it by at most 1/32 relative
// error. The job store records per-job queue-wait / mine / e2e times
// into it, exported as native Prometheus histograms; the serve gate tests
// record the same job timestamps client-side into the same geometry,
// which is what lets them cross-check the server's view of a run against
// their own within one shared error bound.
//
// Values are unit-agnostic int64s (nanoseconds for the job latencies);
// the caller owns the unit.
package hdr

import "math/bits"

// Bucket geometry: non-negative values are binned into power-of-two
// ranges ("exponents") split into 2^subBits linear sub-buckets, the
// classic HDR layout. With subBits = 6 every bucket's width is at most
// 1/32 of its lower bound, so any recorded value is reproduced with
// ≤ ~3.1% relative error — plenty for p99 gating — while Record stays
// O(1) and allocation-free.
const (
	subBits  = 6
	subCount = 1 << subBits // sub-buckets per exponent
	expCount = 64 - subBits // exponents needed to cover uint64 range
)

// Hist is a fixed-size log-linear histogram. The zero value is ready to
// use. Not safe for concurrent use: callers serialise Record (the job
// store records under its mutex).
type Hist struct {
	counts [expCount * subCount]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket. Values below
// subCount land in the exact linear region (exponent 0); above it, the
// top subBits+1 significant bits select (exponent, sub-bucket).
func bucketIndex(u uint64) int {
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - subBits // ≥ 1
	sub := u >> uint(exp)          // in [subCount/2, subCount)
	return exp*subCount + int(sub)
}

// bucketUpper is the largest value mapping to bucket i; quantiles report
// this bound so they never understate a recorded value.
func bucketUpper(i int) int64 {
	exp := i / subCount
	sub := uint64(i % subCount)
	if exp == 0 {
		return int64(sub)
	}
	return int64((sub+1)<<uint(exp) - 1)
}

// Record adds one observation. Negative values clamp to zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(uint64(v))]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n }

// Sum returns the exact sum of recorded observations.
func (h *Hist) Sum() int64 { return h.sum }

// Quantile returns an upper bound for the q-quantile (q in [0, 1]) of the
// recorded stream, within the bucket relative error of the true sorted-
// sample quantile sorted[ceil(q*n)-1]. The bound is clamped to the exact
// observed extrema, so Quantile(0) and Quantile(1) are the exact smallest
// and largest recorded values (0 when empty).
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	f := q * float64(h.n)
	rank := uint64(f)
	if float64(rank) < f {
		rank++ // ceil(q*n)
	}
	if rank == 0 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max // unreachable: counts sum to n
}

// CumulativeLE returns the number of recorded observations at or below
// bound, within the bucket error: every observation in a bucket whose
// range includes bound is counted, so the answer may include values up to
// 1/32 above it — the conservative direction for Prometheus `le` buckets
// (a latency is never reported as faster than it was). Monotonically
// nondecreasing in bound, and CumulativeLE(MaxInt64) == Count(), which is
// what makes a renderer's cumulative buckets well-formed.
func (h *Hist) CumulativeLE(bound int64) uint64 {
	if bound < 0 || h.n == 0 {
		return 0
	}
	top := bucketIndex(uint64(bound))
	var seen uint64
	for i := 0; i <= top; i++ {
		seen += h.counts[i]
	}
	return seen
}
