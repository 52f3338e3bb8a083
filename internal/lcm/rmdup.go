package lcm

import (
	"fpm/internal/dataset"
	"fpm/internal/mine"
)

// rmDupTrans merges identical transactions, accumulating their weights —
// the paper's RmDupTrans (25.5% of LCM's baseline runtime). Transactions
// are bucket-sorted by a content hash; each bucket is searched linearly for
// an existing identical transaction.
//
// The P3 aggregation contrast is in the bucket storage: the baseline links
// individually allocated nodes ("a linked list is used to link all the
// transactions that fall into the same bucket"), while the aggregated
// variant stores bucket members in contiguous chunks (supernodes), since
// the structure is "mostly read only" — it is only appended to, never
// spliced.
//
// d is compacted in place and returned: the k-th distinct transaction
// moves to slot k, which is at most its own index, so every slot is read
// before it is overwritten. Callers pass a database they own.
func (m *Miner) rmDupTrans(d *cdb) *cdb {
	if len(d.tx) < 2 {
		return d
	}
	nb := 1
	for nb < len(d.tx) {
		nb <<= 1
	}
	mask := uint32(nb - 1)

	out := 0
	if m.opts.Patterns.Has(mine.Aggregate) {
		// Aggregated buckets: one []int32 of output indices per bucket,
		// grown in place — members of a bucket live in consecutive memory.
		buckets := make([][]int32, nb)
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

	// Baseline buckets: per-transaction linked nodes; the search is a
	// pointer chase across scattered allocations.
	type dupNode struct {
		oi   int32
		next *dupNode
	}
	buckets := make([]*dupNode, nb)
	for ti, t := range d.tx {
		b := hashTx(t) & mask
		found := false
		for n := buckets[b]; n != nil; n = n.next {
			if eqTx(d.tx[n.oi], t) {
				d.w[n.oi] += d.w[ti]
				found = true
				break
			}
		}
		if !found {
			buckets[b] = &dupNode{oi: int32(out), next: buckets[b]}
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
