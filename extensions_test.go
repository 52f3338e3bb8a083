package fpm

// Tests for the public API of the alternative miners: the tidset and
// diffset vertical representations, H-mine, and the parallel wrapper.

import (
	"testing"
)

func TestAlternativeVerticalMinersPublic(t *testing.T) {
	db := testDB()
	minsup := 20
	want := ResultSet{}
	if m, _ := NewMiner(Eclat, 0); m != nil {
		if err := m.Mine(db, minsup, want); err != nil {
			t.Fatal(err)
		}
	}
	for _, algo := range []Algorithm{Tidset, Diffset} {
		m, err := NewMiner(algo, 0)
		if err != nil {
			t.Fatal(err)
		}
		rs := ResultSet{}
		if err := m.Mine(db, minsup, rs); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !rs.Equal(want) {
			t.Fatalf("%s disagrees with the bit-matrix Eclat:\n%s", m.Name(), rs.Diff(want, 5))
		}
	}
}

func TestHMineAndParallelPublic(t *testing.T) {
	db := testDB()
	minsup := 20
	want := ResultSet{}
	m, _ := NewMiner(LCM, 0)
	if err := m.Mine(db, minsup, want); err != nil {
		t.Fatal(err)
	}
	hm, err := NewMiner(HMine, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := ResultSet{}
	if err := hm.Mine(db, minsup, rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Equal(want) {
		t.Fatalf("hmine disagrees: %s", rs.Diff(want, 5))
	}
	par, err := NewParallel(3, FPGrowth, Applicable(FPGrowth))
	if err != nil {
		t.Fatal(err)
	}
	rs = ResultSet{}
	if err := par.Mine(db, minsup, rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Equal(want) {
		t.Fatalf("parallel fpgrowth disagrees: %s", rs.Diff(want, 5))
	}
	if _, err := NewParallel(2, Algorithm("nope"), 0); err == nil {
		t.Fatal("unknown algorithm accepted by NewParallel")
	}
}
