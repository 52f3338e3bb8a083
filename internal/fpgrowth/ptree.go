package fpgrowth

import "fpm/internal/dataset"

// pointerTree is the baseline FP-tree layout: one heap allocation per node,
// pointer-linked in all four directions (parent, first child, next sibling,
// and the per-item node-link chain). This reproduces the memory behaviour
// the paper starts from: nodes scattered across the heap, upward traversal
// as a pure pointer chase.
type pointerTree struct {
	root *pnode
	// head[i] is the head of item i's node-link chain; sup[i] the summed
	// count of that chain.
	head    map[dataset.Item]*pnode
	sup     map[dataset.Item]int32
	present []dataset.Item
	pathBuf []dataset.Item
}

type pnode struct {
	item    dataset.Item
	count   int32
	parent  *pnode
	child   *pnode // first child
	sibling *pnode // next sibling
	next    *pnode // node-link to the next node with the same item
}

func (t *pointerTree) build(base []weightedTx, bound int) {
	t.root = &pnode{item: -1}
	t.head = make(map[dataset.Item]*pnode)
	t.sup = make(map[dataset.Item]int32)
	t.present = t.present[:0]
	for _, row := range base {
		cur := t.root
		for _, it := range row.items {
			// Find the child carrying it, or create it.
			var ch *pnode
			for c := cur.child; c != nil; c = c.sibling {
				if c.item == it {
					ch = c
					break
				}
			}
			if ch == nil {
				ch = &pnode{item: it, parent: cur, sibling: cur.child}
				cur.child = ch
				ch.next = t.head[it]
				t.head[it] = ch
			}
			ch.count += row.w
			cur = ch
		}
	}
	for it := range t.head {
		t.present = append(t.present, it)
	}
	// Expansion order: decreasing item id = increasing global frequency
	// (least frequent first), matching the classic header-table walk.
	sortItemsDesc(t.present)
	for it, h := range t.head {
		var s int32
		for n := h; n != nil; n = n.next {
			s += n.count
		}
		t.sup[it] = s
	}
}

func (t *pointerTree) items() []dataset.Item { return t.present }

func (t *pointerTree) support(item dataset.Item) int32 { return t.sup[item] }

func (t *pointerTree) condBase(item dataset.Item, emit func(path []dataset.Item, w int32)) {
	for n := t.head[item]; n != nil; n = n.next {
		t.pathBuf = t.pathBuf[:0]
		for p := n.parent; p != nil && p.item >= 0; p = p.parent {
			t.pathBuf = append(t.pathBuf, p.item)
		}
		emit(t.pathBuf, n.count)
	}
}

// sortItemsDesc sorts items in decreasing id order (insertion sort; the
// slices are small and usually nearly sorted).
func sortItemsDesc(s []dataset.Item) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] < v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
