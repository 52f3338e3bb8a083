// Package bitvec implements the dense bit-vector representation used by the
// Eclat kernel (paper §4.2): one bit per transaction, one vector per item or
// itemset. The AND of two vectors is the occurrence vector of the union of
// the two itemsets, and counting ones computes support.
//
// The package provides the exact performance contrasts the paper studies:
//
//   - CountTable: the original Eclat's byte-table-lookup popcount — an
//     indirect load per byte that cannot be SIMDized (and pollutes the
//     cache with a lookup table);
//   - Count / AndCount: computational popcount (branch-free 64-bit SWAR,
//     via math/bits), the Go analogue of the paper's P8 SIMDization since
//     it turns 8 table loads into word-parallel arithmetic; AndCount and
//     AndCountRange also take the paper's 4-way unroll;
//   - OneRange and the *Range variants: the 0-escaping optimization
//     enabled by P1 lexicographic ordering — skip leading/trailing
//     all-zero words using a conservatively maintained 1-range.
package bitvec

import "math/bits"

const wordBits = 64

// Vector is a fixed-length bit vector. Bit i corresponds to transaction i.
type Vector struct {
	words []uint64
	n     int // logical length in bits
}

// New returns a zeroed vector of n bits.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices builds a vector of n bits with the given bit positions set.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the logical length in bits.
func (v *Vector) Len() int { return v.n }

// Words returns the number of 64-bit words backing the vector.
func (v *Vector) Words() int { return len(v.words) }

// Word returns the i-th backing word. It is exported for the instrumented
// simulator kernels, which need to replay per-word access streams.
func (v *Vector) Word(i int) uint64 { return v.words[i] }

// Set sets bit i.
func (v *Vector) Set(i int) { v.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear clears bit i.
func (v *Vector) Clear(i int) { v.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Get reports bit i.
func (v *Vector) Get(i int) bool {
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Clone returns a copy of v.
func (v *Vector) Clone() *Vector {
	return &Vector{words: append([]uint64(nil), v.words...), n: v.n}
}

// And stores a AND b into dst. All three must have the same length; dst may
// alias a or b.
func And(dst, a, b *Vector) {
	for i := range dst.words {
		dst.words[i] = a.words[i] & b.words[i]
	}
}

// Count returns the number of set bits using computational popcount
// (math/bits compiles to POPCNT or a branch-free SWAR sequence). This is
// the "SIMDizable" counting method of P8.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// popTable is the 8-bit popcount lookup table used by the pre-SIMD Eclat
// implementation. Indirect loads through it defeat vectorization, which is
// exactly why the paper replaces it (§4.2).
var popTable = func() [256]uint8 {
	var t [256]uint8
	for i := range t {
		t[i] = uint8(bits.OnesCount8(uint8(i)))
	}
	return t
}()

// CountTable counts set bits via per-byte table lookups, reproducing the
// baseline (unSIMDizable) frequency counting of the original Eclat code.
func (v *Vector) CountTable() int {
	c := 0
	for _, w := range v.words {
		c += int(popTable[w&0xff]) +
			int(popTable[(w>>8)&0xff]) +
			int(popTable[(w>>16)&0xff]) +
			int(popTable[(w>>24)&0xff]) +
			int(popTable[(w>>32)&0xff]) +
			int(popTable[(w>>40)&0xff]) +
			int(popTable[(w>>48)&0xff]) +
			int(popTable[(w>>56)&0xff])
	}
	return c
}

// CountSWAR counts set bits with an explicit branch-free SWAR reduction
// (the classic 64-bit parallel popcount). Functionally identical to Count;
// kept separate so benchmarks can compare against math/bits even on
// platforms where the compiler emits POPCNT.
func (v *Vector) CountSWAR() int {
	c := uint64(0)
	for _, w := range v.words {
		w -= (w >> 1) & 0x5555555555555555
		w = (w & 0x3333333333333333) + ((w >> 2) & 0x3333333333333333)
		w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0f
		c += (w * 0x0101010101010101) >> 56
	}
	return int(c)
}

// AndCount stores a AND b into dst and returns the resulting popcount in a
// single fused pass (one load pair, one store, one count per word). Fusing
// halves memory traffic versus And followed by Count, which matters because
// 98% of Eclat's time is in exactly this loop (paper §4.2).
func AndCount(dst, a, b *Vector) int {
	return andCountWords(dst.words, a.words, b.words)
}

// andCountWords is the fused loop unrolled four ways, with one counter per
// lane, the paper's P8 form: the four AND+count chains are independent,
// so they overlap in the pipeline instead of serialising on one
// accumulator. aw and bw must be at least as long as dw.
func andCountWords(dw, aw, bw []uint64) int {
	n := len(dw)
	aw, bw = aw[:n], bw[:n]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= n; i += 4 {
		// Four-word windows: one bounds check each instead of one per word.
		d, a, b := dw[i:i+4:i+4], aw[i:i+4:i+4], bw[i:i+4:i+4]
		w0 := a[0] & b[0]
		w1 := a[1] & b[1]
		w2 := a[2] & b[2]
		w3 := a[3] & b[3]
		d[0], d[1], d[2], d[3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
	}
	for ; i < n; i++ {
		w := aw[i] & bw[i]
		dw[i] = w
		c0 += bits.OnesCount64(w)
	}
	return c0 + c1 + c2 + c3
}

// AndCountTable is the fused loop with table-lookup counting: the tuned
// loop structure but the baseline counting method. Used to isolate the P8
// benefit in ablation benchmarks.
func AndCountTable(dst, a, b *Vector) int {
	c := 0
	dw, aw, bw := dst.words, a.words, b.words
	for i := range dw {
		w := aw[i] & bw[i]
		dw[i] = w
		c += int(popTable[w&0xff]) +
			int(popTable[(w>>8)&0xff]) +
			int(popTable[(w>>16)&0xff]) +
			int(popTable[(w>>24)&0xff]) +
			int(popTable[(w>>32)&0xff]) +
			int(popTable[(w>>40)&0xff]) +
			int(popTable[(w>>48)&0xff]) +
			int(popTable[(w>>56)&0xff])
	}
	return c
}

// OneRange is the half-open word-index interval [Lo, Hi) containing every
// set bit of a vector. The paper's 0-escaping (§4.2) skips AND/count work
// outside the intersection of the operands' 1-ranges. Ranges maintained by
// intersecting operand ranges are conservative but sound: they may include
// zero words but never exclude a one word.
type OneRange struct {
	Lo, Hi int
}

// Empty reports whether the range contains no words.
func (r OneRange) Empty() bool { return r.Lo >= r.Hi }

// Intersect returns the intersection of two ranges — the conservative
// 1-range of the AND of the corresponding vectors.
func (r OneRange) Intersect(o OneRange) OneRange {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		lo, hi = 0, 0
	}
	return OneRange{lo, hi}
}

// Range computes the exact 1-range of v by scanning for the first and last
// nonzero words. Used to initialize item vectors (the paper computes "the
// first and last 1 in each item bit-vector").
func (v *Vector) Range() OneRange {
	lo := 0
	for lo < len(v.words) && v.words[lo] == 0 {
		lo++
	}
	if lo == len(v.words) {
		return OneRange{}
	}
	hi := len(v.words)
	for v.words[hi-1] == 0 {
		hi--
	}
	return OneRange{lo, hi}
}

// AndCountRange fuses AND and popcount restricted to the word range r. It
// leaves dst's words outside r as they were: Eclat pairs every vector with
// its range, and later range-restricted operations never read outside it,
// so a destination may be reused with stale words outside r.
func AndCountRange(dst, a, b *Vector, r OneRange) int {
	return andCountWords(dst.words[r.Lo:r.Hi], a.words[r.Lo:r.Hi], b.words[r.Lo:r.Hi])
}

// AndCountRangeTable is AndCountRange with the baseline table-lookup
// counting method, so 0-escaping (P1-enabled) and SIMDization (P8) can be
// measured independently.
func AndCountRangeTable(dst, a, b *Vector, r OneRange) int {
	c := 0
	dw, aw, bw := dst.words, a.words, b.words
	for i := r.Lo; i < r.Hi; i++ {
		w := aw[i] & bw[i]
		dw[i] = w
		c += int(popTable[w&0xff]) +
			int(popTable[(w>>8)&0xff]) +
			int(popTable[(w>>16)&0xff]) +
			int(popTable[(w>>24)&0xff]) +
			int(popTable[(w>>32)&0xff]) +
			int(popTable[(w>>40)&0xff]) +
			int(popTable[(w>>48)&0xff]) +
			int(popTable[(w>>56)&0xff])
	}
	return c
}

// AndCountRangeExact is AndCountRange but additionally tightens the
// resulting range to the exact first/last nonzero word of dst within r.
// This is the "optimal ranges" alternative the paper notes its conservative
// ranges are not; exposed for the E9 ablation.
func AndCountRangeExact(dst, a, b *Vector, r OneRange) (int, OneRange) {
	c := 0
	lo, hi := -1, -1
	dw, aw, bw := dst.words, a.words, b.words
	for i := r.Lo; i < r.Hi; i++ {
		w := aw[i] & bw[i]
		dw[i] = w
		if w != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
			c += bits.OnesCount64(w)
		}
	}
	if lo < 0 {
		return 0, OneRange{}
	}
	return c, OneRange{lo, hi}
}

// Indices returns the positions of all set bits in increasing order.
func (v *Vector) Indices() []int {
	var out []int
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Equal reports whether two vectors have identical length and bits.
func Equal(a, b *Vector) bool {
	if a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}
