package partition

import (
	"fpm/internal/dataset"
	"fpm/internal/mine"
)

// trie is the candidate union: a prefix tree over canonical (ascending)
// itemsets. Pass 1 inserts every locally-frequent itemset any chunk
// produces — duplicates across chunks collapse onto the same node — and
// pass 2 counts every candidate over each chunk's rows. Each candidate
// node carries a dense id, so pass 2 counts into one flat array and a
// checkpoint persists that array as is.
//
// The trie exists in two forms, the paper's build/seal life cycle (P3
// aggregation + P4 compaction applied to the out-of-core hot structure):
// this mutable form, cheap to insert into, is used only while pass 1 is
// still adding candidates; Seal then flattens it into the sealed arena
// form that pass 2's read-only vertical recount (recount.go) and the
// checkpoint encoder run against.
type trie struct {
	nodes []trieNode
	cands int // number of candidate (terminal) nodes
}

type trieNode struct {
	// children is kept sorted by item, so lookup is a binary search and
	// an in-order walk enumerates itemsets in lexicographic prefix order.
	children []childRef
	// cand is the candidate id when this node terminates an inserted
	// itemset, else -1.
	cand int32
}

type childRef struct {
	item dataset.Item
	node int32
}

// newTrie returns an empty trie (a lone root, which never terminates a
// candidate: kernels do not emit the empty itemset).
func newTrie() *trie {
	return &trie{nodes: []trieNode{{cand: -1}}}
}

// Candidates returns the number of distinct itemsets inserted.
func (t *trie) Candidates() int { return t.cands }

// childSearchLinearMax is the child-list length below which findChild
// scans linearly instead of binary-searching. Short sorted arrays are
// faster to scan than to bisect (no branch mispredict recovery on the
// halving compares), and most trie nodes below the root have a handful
// of children.
const childSearchLinearMax = 8

// findChild returns the insertion position of item in the sorted child
// list: the first index whose item is >= the probe. It is the inlinable
// replacement for sort.Search in the pass-1 insert loop — sort.Search's
// closure call per probe defeats inlining exactly where Add spends its
// time (see BenchmarkTrieAdd).
func findChild(ch []childRef, item dataset.Item) int {
	if len(ch) <= childSearchLinearMax {
		for i := range ch {
			if ch[i].item >= item {
				return i
			}
		}
		return len(ch)
	}
	lo, hi := 0, len(ch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ch[mid].item < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// child returns the index of n's child for item, or -1.
func (t *trie) child(n int32, item dataset.Item) int32 {
	ch := t.nodes[n].children
	if i := findChild(ch, item); i < len(ch) && ch[i].item == item {
		return ch[i].node
	}
	return -1
}

// Add inserts the itemset (which must be sorted ascending and
// duplicate-free — the caller canonicalises) and reports whether it was
// new. Re-inserting an existing candidate is a no-op.
func (t *trie) Add(items []dataset.Item) bool {
	n := int32(0)
	for _, it := range items {
		ch := t.nodes[n].children
		i := findChild(ch, it)
		if i < len(ch) && ch[i].item == it {
			n = ch[i].node
			continue
		}
		t.nodes = append(t.nodes, trieNode{cand: -1})
		nn := int32(len(t.nodes) - 1)
		ch = append(ch, childRef{})
		copy(ch[i+1:], ch[i:])
		ch[i] = childRef{item: it, node: nn}
		t.nodes[n].children = ch
		n = nn
	}
	if t.nodes[n].cand >= 0 {
		return false
	}
	t.nodes[n].cand = int32(t.cands)
	t.cands++
	return true
}

// Count walks one normalized (sorted, duplicate-free) transaction and
// increments counts[id] for every candidate that is a subset of it. Each
// candidate is counted at most once per transaction: items are strictly
// increasing, so a subset corresponds to exactly one root-to-node path
// reached through exactly one index subsequence.
//
// Production pass 2 counts vertically over the sealed form (vertical in
// recount.go); this per-transaction walk is kept as the baseline
// contestant of BenchmarkPass2Recount and as the oracle of the seal and
// recount property tests.
func (t *trie) Count(tx dataset.Transaction, counts []uint32) {
	t.count(0, tx, counts)
}

func (t *trie) count(n int32, tx dataset.Transaction, counts []uint32) {
	node := &t.nodes[n]
	if len(node.children) == 0 {
		return
	}
	// Both the transaction and the child list are sorted ascending:
	// advance through them in lockstep instead of binary-searching every
	// transaction item from scratch.
	ch := node.children
	ci := 0
	for i := 0; i < len(tx) && ci < len(ch); i++ {
		it := tx[i]
		for ci < len(ch) && ch[ci].item < it {
			ci++
		}
		if ci == len(ch) {
			return
		}
		if ch[ci].item == it {
			c := ch[ci].node
			if id := t.nodes[c].cand; id >= 0 {
				counts[id]++
			}
			t.count(c, tx[i+1:], counts)
			ci++
		}
	}
}

// Emit appends every candidate whose global count cleared minSupport to
// out, walking the trie in lexicographic prefix order. The returned sets
// carry their exact pass-2 supports; callers wanting the canonical
// size-then-lex order (mine.LessItems) sort afterwards.
func (t *trie) Emit(counts []uint32, minSupport int, out []mine.Itemset) []mine.Itemset {
	var prefix []dataset.Item
	var walk func(n int32)
	walk = func(n int32) {
		node := &t.nodes[n]
		if id := node.cand; id >= 0 && int(counts[id]) >= minSupport {
			out = append(out, mine.Itemset{
				Items:   append([]dataset.Item(nil), prefix...),
				Support: int(counts[id]),
			})
		}
		for _, c := range node.children {
			prefix = append(prefix, c.item)
			walk(c.node)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(0)
	return out
}

// sealed is the P3+P4 compacted candidate trie: the whole tree flattened
// into one arena of three parallel arrays in CSR form. Node n's children
// are keys[start[n]:start[n+1]] (the child item keys, sorted ascending)
// and child[start[n]:start[n+1]] (the child node ids); cand[n] is n's
// candidate id or -1. Nodes are renumbered in DFS prefix order, so a
// parent's child row is contiguous and the recount's DFS descends into
// node ids (and therefore memory) that mostly increase — the
// aggregation (P3: one allocation for every child list)
// and compaction (P4: 4-byte keys and refs, no per-node slice headers)
// the paper applies to trie-shaped mining structures.
//
// A sealed trie is immutable: pass 2 and the checkpoint encoder only
// read it.
type sealed struct {
	start []int32        // CSR offsets; len == len(cand)+1
	keys  []dataset.Item // child item keys, all nodes concatenated
	child []int32        // child node ids, parallel to keys
	cand  []int32        // candidate id per node, -1 when none
	cands int            // number of candidate ids
}

// Seal flattens the mutable trie into its sealed arena form. Candidate
// ids are preserved exactly — pass-2 count arrays and checkpointed
// partial counts index by candidate id, so sealing (or resuming from a
// sealed sidecar) never invalidates them. Only node ids are renumbered
// (DFS prefix order); node ids are internal to the trie and never leave
// it. The mutable trie is left untouched.
func (t *trie) Seal() *sealed {
	n := len(t.nodes)
	edges := n - 1 // every node except the root is exactly one child
	s := &sealed{
		start: make([]int32, n+1),
		keys:  make([]dataset.Item, 0, edges),
		child: make([]int32, 0, edges),
		cand:  make([]int32, n),
		cands: t.cands,
	}
	// Pass A: assign DFS-preorder ids. The explicit stack visits children
	// in ascending item order (they are stored sorted), so preorder here
	// is exactly the lexicographic prefix order Emit walks.
	newID := make([]int32, n)
	order := make([]int32, 0, n) // new id -> old id
	stack := make([]int32, 1, 64)
	stack[0] = 0
	for len(stack) > 0 {
		old := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		newID[old] = int32(len(order))
		order = append(order, old)
		ch := t.nodes[old].children
		for k := len(ch) - 1; k >= 0; k-- {
			stack = append(stack, ch[k].node)
		}
	}
	// Pass B: emit each node's child row into the arena in new-id order.
	for ni, old := range order {
		node := &t.nodes[old]
		s.start[ni] = int32(len(s.keys))
		s.cand[ni] = node.cand
		for _, c := range node.children {
			s.keys = append(s.keys, c.item)
			s.child = append(s.child, newID[c.node])
		}
	}
	s.start[n] = int32(len(s.keys))
	return s
}

// unseal reconstructs a mutable trie from the sealed form, for resuming
// pass 1 from a checkpointed sidecar (the only phase that still inserts).
// Candidate ids are preserved; child lists come back sorted because the
// arena rows are stored sorted.
func (s *sealed) unseal() *trie {
	t := &trie{nodes: make([]trieNode, len(s.cand)), cands: s.cands}
	for n := range t.nodes {
		t.nodes[n].cand = s.cand[n]
		lo, hi := s.start[n], s.start[n+1]
		if lo == hi {
			continue
		}
		ch := make([]childRef, hi-lo)
		for k := range ch {
			ch[k] = childRef{item: s.keys[lo+int32(k)], node: s.child[lo+int32(k)]}
		}
		t.nodes[n].children = ch
	}
	return t
}

// Candidates returns the number of distinct candidate itemsets.
func (s *sealed) Candidates() int { return s.cands }

// Emit is trie.Emit against the sealed arena: every candidate clearing
// minSupport, in lexicographic prefix order, with its exact support.
func (s *sealed) Emit(counts []uint32, minSupport int, out []mine.Itemset) []mine.Itemset {
	var prefix []dataset.Item
	var walk func(n int32)
	walk = func(n int32) {
		if id := s.cand[n]; id >= 0 && int(counts[id]) >= minSupport {
			out = append(out, mine.Itemset{
				Items:   append([]dataset.Item(nil), prefix...),
				Support: int(counts[id]),
			})
		}
		for ci := s.start[n]; ci < s.start[n+1]; ci++ {
			prefix = append(prefix, s.keys[ci])
			walk(s.child[ci])
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(0)
	return out
}
