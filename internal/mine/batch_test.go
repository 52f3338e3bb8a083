package mine

import (
	"testing"

	"fpm/internal/dataset"
)

func fillShard(s *ShardCollector) []Itemset {
	sets := []Itemset{
		{Items: []dataset.Item{3}, Support: 7},
		{Items: []dataset.Item{1, 2}, Support: 5},
		{Items: []dataset.Item{0, 2, 4}, Support: 2},
	}
	for _, set := range sets {
		s.Collect(set.Items, set.Support)
	}
	return sets
}

func TestShardCollectorRoundTrip(t *testing.T) {
	var s ShardCollector
	want := fillShard(&s)
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if s.TotalSupport() != 14 {
		t.Fatalf("TotalSupport = %d, want 14", s.TotalSupport())
	}
	var replay SliceCollector
	s.Emit(&replay)
	if len(replay.Sets) != len(want) {
		t.Fatalf("Emit replayed %d sets", len(replay.Sets))
	}
	for i, w := range want {
		if Key(replay.Sets[i].Items) != Key(w.Items) || replay.Sets[i].Support != w.Support {
			t.Fatalf("replayed set %d = %v, want %v", i, replay.Sets[i], w)
		}
	}
	s.Reset()
	if s.Len() != 0 || s.TotalSupport() != 0 {
		t.Fatal("Reset did not empty the shard")
	}
}

// TestBatchCollectorEquivalence asserts CollectBatch and per-itemset
// Collect agree for the built-in collectors.
func TestBatchCollectorEquivalence(t *testing.T) {
	var s ShardCollector
	want := fillShard(&s)

	var cc CountCollector
	cc.CollectBatch(&s)
	if cc.N != len(want) || cc.TotalSupport != 14 {
		t.Fatalf("CountCollector batch: N=%d total=%d", cc.N, cc.TotalSupport)
	}

	var sc SliceCollector
	sc.CollectBatch(&s)
	sc.CollectBatch(&s) // second shard appends
	if len(sc.Sets) != 2*len(want) {
		t.Fatalf("SliceCollector batch: %d sets", len(sc.Sets))
	}
	for i := range want {
		if Key(sc.Sets[i].Items) != Key(want[i].Items) {
			t.Fatalf("batch set %d = %v, want %v", i, sc.Sets[i], want[i])
		}
	}
}

// TestShardCollectorCopies asserts the arena copies the items slice — the
// Collector contract allows miners to reuse their emission buffer.
func TestShardCollectorCopies(t *testing.T) {
	var s ShardCollector
	buf := []dataset.Item{1, 2, 3}
	s.Collect(buf, 4)
	buf[0] = 99
	var replay SliceCollector
	s.Emit(&replay)
	if replay.Sets[0].Items[0] != 1 {
		t.Fatal("shard aliases the caller's buffer")
	}
}

func TestLessItems(t *testing.T) {
	cases := []struct {
		a, b []dataset.Item
		want bool
	}{
		{[]dataset.Item{5}, []dataset.Item{1, 2}, true},
		{[]dataset.Item{1, 2}, []dataset.Item{5}, false},
		{[]dataset.Item{1, 2}, []dataset.Item{1, 3}, true},
		{[]dataset.Item{1, 3}, []dataset.Item{1, 3}, false},
	}
	for _, c := range cases {
		if got := LessItems(c.a, c.b); got != c.want {
			t.Fatalf("LessItems(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestSortCanonical(t *testing.T) {
	sets := []Itemset{
		{Items: []dataset.Item{1, 3}}, {Items: []dataset.Item{5}},
		{Items: []dataset.Item{0, 2, 4}}, {Items: []dataset.Item{1, 2}}, {Items: []dataset.Item{2}},
	}
	SortCanonical(sets)
	want := []string{"2", "5", "1,2", "1,3", "0,2,4"}
	for i, s := range sets {
		if Key(s.Items) != want[i] {
			t.Fatalf("position %d = %v, want {%s}", i, s.Items, want[i])
		}
	}
}
