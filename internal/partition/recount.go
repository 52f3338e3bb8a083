package partition

import (
	"slices"

	"fpm/internal/bitvec"
	"fpm/internal/dataset"
)

// vertical is pass 2's exact recount, the paper's P2 applied to the
// out-of-core path: the candidate trie is read-only and every candidate
// is counted over the same rows, which is Eclat's access pattern, so
// pass 2 turns each chunk vertical. One pass over a stripe of the chunk's
// rows builds an occurrence bit vector for every item that is a key
// anywhere in the trie; a DFS over the sealed trie then gives each node
// the AND of its parent's vector and its item's vector, counted by
// bitvec's fused AND+popcount (P8). A subtree whose prefix occurs in no
// row of the stripe is skipped.
//
// Every vector carries the word range its ones lie in, as Eclat's do
// (bitvec.OneRange): a node's range is its parent's intersected with its
// item's, and an AND reads and writes that range only. Item vectors are
// all zero between stripes, so a rare item costs only the words it
// occurs in.
//
// The resident vector bytes are bounded: a stripe holds at most
// stripeMax rows, sized so that the key vectors plus the per-depth
// buffers fit in the byte budget passed to newVertical. Vectors grow to
// the largest stripe seen and are reused after that, so counting a chunk
// no larger than an earlier one allocates nothing.
type vertical struct {
	s *sealed
	// keyIdx maps an item to its key index, -1 when no trie edge carries
	// it. It covers the items up to the largest key.
	keyIdx []int32
	keys   int // distinct key items
	depth  int // edges on the longest root-to-leaf path
	// stripeMax is the row cap of one stripe, a multiple of 64.
	stripeMax int
	// rows is the capacity of every vector below, in bits.
	rows int
	// vecs[k] is key k's occurrence vector over the current stripe,
	// rng[k] the word range of its ones and freq[k] its popcount.
	vecs []*bitvec.Vector
	rng  []bitvec.OneRange
	freq []uint32
	// bufs[d] receives the ANDs of the nodes d+2 edges below the root;
	// root children use their item vector as is.
	bufs []*bitvec.Vector
	// zero stays all zero: ANDing a key vector with it over the key's
	// range clears the stripe's bits without an allocation.
	zero *bitvec.Vector
}

// newVertical prepares the recount of s under a budget of budget bytes
// for the resident vectors. The vectors themselves are allocated by the
// first Count.
func newVertical(s *sealed, budget int64) *vertical {
	v := &vertical{s: s}
	if len(s.keys) > 0 {
		maxKey := slices.Max(s.keys)
		isKey := make([]bool, maxKey+1)
		for _, it := range s.keys {
			isKey[it] = true
		}
		v.keyIdx = make([]int32, maxKey+1)
		for it, ok := range isKey {
			v.keyIdx[it] = -1
			if ok {
				v.keyIdx[it] = int32(v.keys)
				v.keys++
			}
		}
	}
	v.depth = s.height(0)
	v.rng = make([]bitvec.OneRange, v.keys)
	v.freq = make([]uint32, v.keys)
	v.stripeMax = stripeRows(budget, v.vectors())
	return v
}

// vectors is the number of resident vectors: one per key, one AND buffer
// per trie level below the root children, and the zero vector.
func (v *vertical) vectors() int { return v.keys + v.depth }

// stripeRows is the largest multiple of 64 rows whose vectors, n of them,
// fit in budget bytes, and at least 64.
func stripeRows(budget int64, n int) int {
	if n == 0 {
		return 64
	}
	rows := budget * 8 / int64(n) / 64 * 64
	return int(max(rows, 64))
}

// height returns the number of edges on the longest path down from n.
func (s *sealed) height(n int32) int {
	h := 0
	for ci := s.start[n]; ci < s.start[n+1]; ci++ {
		h = max(h, 1+s.height(s.child[ci]))
	}
	return h
}

// Count adds to counts[id] the number of transactions in txs that contain
// candidate id. Transactions must be normalized (sorted ascending,
// duplicate-free), as chunks from fimi are.
func (v *vertical) Count(txs []dataset.Transaction, counts []uint32) {
	if v.keys == 0 {
		return
	}
	for lo := 0; lo < len(txs); lo += v.stripeMax {
		stripe := txs[lo:min(lo+v.stripeMax, len(txs))]
		v.grow((len(stripe) + 63) / 64 * 64)
		v.build(stripe)
		v.countRoot(counts)
		v.clear()
	}
}

// grow makes every vector hold at least rows bits.
func (v *vertical) grow(rows int) {
	if rows <= v.rows {
		return
	}
	v.rows = rows
	v.vecs = make([]*bitvec.Vector, v.keys)
	for k := range v.vecs {
		v.vecs[k] = bitvec.New(rows)
	}
	v.bufs = make([]*bitvec.Vector, max(v.depth-1, 0))
	for d := range v.bufs {
		v.bufs[d] = bitvec.New(rows)
	}
	v.zero = bitvec.New(rows)
}

// build sets, for every key item, the bits of the stripe's rows that
// contain it.
func (v *vertical) build(stripe []dataset.Transaction) {
	for row, tx := range stripe {
		w := row / 64
		for _, it := range tx {
			if int(it) >= len(v.keyIdx) {
				break // sorted: no key above the largest
			}
			k := v.keyIdx[it]
			if k < 0 {
				continue
			}
			v.vecs[k].Set(row)
			if v.freq[k] == 0 {
				v.rng[k].Lo = w
			}
			v.rng[k].Hi = w + 1
			v.freq[k]++
		}
	}
}

// clear zeroes what build set, leaving every key vector all zero.
func (v *vertical) clear() {
	for k, r := range v.rng {
		if v.freq[k] == 0 {
			continue
		}
		bitvec.AndCountRange(v.vecs[k], v.vecs[k], v.zero, r)
		v.rng[k], v.freq[k] = bitvec.OneRange{}, 0
	}
}

// countRoot counts the root's children, whose support is their item's
// popcount, and descends into every child that occurs.
func (v *vertical) countRoot(counts []uint32) {
	s := v.s
	for ci := s.start[0]; ci < s.start[1]; ci++ {
		k := v.keyIdx[s.keys[ci]]
		n := v.freq[k]
		if n == 0 {
			continue
		}
		c := s.child[ci]
		if id := s.cand[c]; id >= 0 {
			counts[id] += n
		}
		if s.start[c] != s.start[c+1] {
			v.countBelow(c, v.vecs[k], v.rng[k], 0, counts)
		}
	}
}

// countBelow counts the children of node n, whose occurrence vector is
// parent with its ones in pr, into the AND buffer of depth d.
func (v *vertical) countBelow(n int32, parent *bitvec.Vector, pr bitvec.OneRange, d int, counts []uint32) {
	s := v.s
	dst := v.bufs[d]
	for ci := s.start[n]; ci < s.start[n+1]; ci++ {
		k := v.keyIdx[s.keys[ci]]
		r := pr.Intersect(v.rng[k])
		if r.Empty() {
			continue
		}
		cnt := bitvec.AndCountRange(dst, parent, v.vecs[k], r)
		if cnt == 0 {
			continue
		}
		c := s.child[ci]
		if id := s.cand[c]; id >= 0 {
			counts[id] += uint32(cnt)
		}
		if s.start[c] != s.start[c+1] {
			v.countBelow(c, dst, r, d+1, counts)
		}
	}
}
