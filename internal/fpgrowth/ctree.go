package fpgrowth

import "fpm/internal/dataset"

// compactTree is the P2 data-structure-adapted layout: nodes live in one
// contiguous arena and link by 32-bit indices, shrinking the node from the
// pointer layout's 48 bytes (plus per-node allocator overhead) to 24 bytes,
// with no per-node allocations. The miner keeps one compactTree per
// recursion depth and rebuilds it in place, so its arrays grow only when a
// tree outgrows every earlier tree at that depth, and the header spans the
// tree's rank bound, not the alphabet. This is the Go analogue of the
// paper's differential item-ID encoding — the mechanism differs (indices
// instead of byte deltas, since Go favours dense arenas over unaligned byte
// packing) but the optimization objective is the same: "this reduces the
// node size and memory requirements dramatically".
//
// With aggregate set, build additionally computes P3 supernodes: for every
// node, the items of its next aggSpan-1 ancestors stored inline in a
// contiguous side array plus a skip index to the ancestor beyond them, so
// the conditional-pattern-base walk reads one contiguous record per
// superlevel instead of dereferencing one node per level. Shared ancestors
// are replicated into each descendant's segment, which "partially offsets
// the compression achieved by using a prefix tree representation" exactly
// as the paper notes.
type compactTree struct {
	aggregate bool
	aggSpan   int
	prefetch  bool

	nodes []cnode
	// head[i]/sup[i] index item i's node-link chain head and support. The
	// header table is a dense array over [0, bound) — items are frequency
	// ranks, and a tree only holds ranks below its build bound.
	head []int32
	sup  []int32

	// Aggregation side arrays, indexed by node: seg holds each node's
	// inline ancestor items back-to-back; skip is the arena index of the
	// ancestor after the inline segment (or nilIdx).
	segOff  []int32
	segLen  []int8
	segs    []dataset.Item
	skip    []int32
	present []dataset.Item
	pathBuf []dataset.Item
}

const nilIdx = int32(-1)

type cnode struct {
	item    dataset.Item
	count   int32
	parent  int32
	child   int32
	sibling int32
	next    int32
}

func (t *compactTree) build(base []weightedTx, bound int) {
	t.nodes = append(t.nodes[:0], cnode{item: -1, parent: nilIdx, child: nilIdx, sibling: nilIdx, next: nilIdx})
	t.head = resize(t.head, bound)
	for i := range t.head {
		t.head[i] = nilIdx
	}
	t.sup = resize(t.sup, bound)
	t.present = t.present[:0]

	for _, row := range base {
		cur := int32(0)
		for _, it := range row.items {
			ch := nilIdx
			for c := t.nodes[cur].child; c != nilIdx; c = t.nodes[c].sibling {
				if t.nodes[c].item == it {
					ch = c
					break
				}
			}
			if ch == nilIdx {
				ch = int32(len(t.nodes))
				t.nodes = append(t.nodes, cnode{
					item: it, parent: cur, child: nilIdx,
					sibling: t.nodes[cur].child, next: t.head[it],
				})
				t.nodes[cur].child = ch
				t.head[it] = ch
			}
			t.nodes[ch].count += row.w
			cur = ch
		}
	}

	// Decreasing id = least frequent first.
	for it := dataset.Item(bound) - 1; it >= 0; it-- {
		if t.head[it] == nilIdx {
			t.sup[it] = 0
			continue
		}
		t.present = append(t.present, it)
		var s int32
		for n := t.head[it]; n != nilIdx; n = t.nodes[n].next {
			s += t.nodes[n].count
		}
		t.sup[it] = s
	}

	if t.aggregate {
		t.buildSegments()
	}
}

// resize returns s with length n, allocating only when s lacks the
// capacity. Reused entries keep their stale values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildSegments materialises the P3 supernode segments: for each node, up
// to aggSpan-1 ancestor items copied inline, plus the skip index. Every
// entry but the root's is overwritten, and walks never read the root's.
func (t *compactTree) buildSegments() {
	n := len(t.nodes)
	t.segOff = resize(t.segOff, n)
	t.segLen = resize(t.segLen, n)
	t.skip = resize(t.skip, n)
	t.segs = t.segs[:0]
	for i := 1; i < n; i++ {
		t.segOff[i] = int32(len(t.segs))
		p := t.nodes[i].parent
		ln := 0
		for ln < t.aggSpan-1 && p != 0 && p != nilIdx {
			t.segs = append(t.segs, t.nodes[p].item)
			p = t.nodes[p].parent
			ln++
		}
		t.segLen[i] = int8(ln)
		if p == 0 || p == nilIdx {
			t.skip[i] = nilIdx
		} else {
			t.skip[i] = p
		}
	}
}

func (t *compactTree) items() []dataset.Item { return t.present }

func (t *compactTree) support(item dataset.Item) int32 { return t.sup[item] }

func (t *compactTree) condBase(item dataset.Item, emit func(path []dataset.Item, w int32)) {
	for n := t.head[item]; n != nilIdx; n = t.nodes[n].next {
		if t.prefetch {
			if nx := t.nodes[n].next; nx != nilIdx {
				// P5/P7 emulation: touch the next node-link early.
				_ = t.nodes[nx].count
			}
		}
		t.pathBuf = t.pathBuf[:0]
		if t.aggregate {
			// Supernode walk: consume inline segments, then skip.
			cur := n
			for cur != nilIdx && cur != 0 {
				off, ln := t.segOff[cur], int(t.segLen[cur])
				t.pathBuf = append(t.pathBuf, t.segs[off:off+int32(ln)]...)
				cur = t.skip[cur]
				if cur != nilIdx && cur != 0 {
					t.pathBuf = append(t.pathBuf, t.nodes[cur].item)
				}
			}
		} else {
			for p := t.nodes[n].parent; p != nilIdx && p != 0; p = t.nodes[p].parent {
				t.pathBuf = append(t.pathBuf, t.nodes[p].item)
			}
		}
		emit(t.pathBuf, t.nodes[n].count)
	}
}
