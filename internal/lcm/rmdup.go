package lcm

import "fpm/internal/dataset"

// rmDupTrans merges identical transactions, accumulating their weights —
// the paper's RmDupTrans (25.5% of LCM's baseline runtime). Transactions
// are bucket-sorted by a content hash; each bucket is searched linearly for
// an existing identical transaction.
//
// Each bucket holds its members' output indices in one []int32, grown in
// place, so a bucket search reads consecutive memory: the paper's P3
// supernodes, which fit here because the structure is "mostly read only"
// (only appended to, never spliced). The linked-node layout the paper
// starts from survives only in internal/simkern's model; natively it never
// ran faster.
//
// d's row headers and weights are compacted in place and d is returned:
// the k-th distinct transaction moves to slot k, which is at most its own
// index, so every slot is read before it is overwritten. The rows
// themselves are only read. The bucket table is the state's, reused by
// every call: each call empties the buckets it uses and keeps their
// capacity.
func (st *state) rmDupTrans(d *cdb) *cdb {
	if len(d.tx) < 2 {
		return d
	}
	nb := 1
	for nb < len(d.tx) {
		nb <<= 1
	}
	mask := uint32(nb - 1)

	out := 0
	if len(st.buckets) < nb {
		st.buckets = append(st.buckets, make([][]int32, nb-len(st.buckets))...)
	}
	buckets := st.buckets[:nb]
	for b := range buckets {
		buckets[b] = buckets[b][:0]
	}
	for ti, t := range d.tx {
		b := hashTx(t) & mask
		found := false
		for _, oi := range buckets[b] {
			if eqTx(d.tx[oi], t) {
				d.w[oi] += d.w[ti]
				found = true
				break
			}
		}
		if !found {
			buckets[b] = append(buckets[b], int32(out))
			d.tx[out], d.w[out] = t, d.w[ti]
			out++
		}
	}
	d.tx, d.w = d.tx[:out], d.w[:out]
	return d
}

// hashTx is an FNV-1a hash over the transaction's items.
func hashTx(t []dataset.Item) uint32 {
	h := uint32(2166136261)
	for _, it := range t {
		h ^= uint32(it)
		h *= 16777619
	}
	return h
}

// eqTx reports whether two sorted transactions are identical.
func eqTx(a, b []dataset.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
