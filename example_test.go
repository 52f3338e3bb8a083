package fpm_test

import (
	"fmt"
	"sort"
	"strings"

	"fpm"
)

// The paper's running example (Table 1): five transactions over items
// a..f, encoded as 0..5.
func paperDB() *fpm.DB {
	return &fpm.DB{
		Tx: []fpm.Transaction{
			{0, 2, 5},
			{1, 2, 5},
			{0, 2, 5},
			{3, 4},
			{0, 1, 2, 3, 4, 5},
		},
		NumItems: 6,
	}
}

func ExampleMine() {
	sets, err := fpm.Mine(paperDB(), fpm.Eclat, fpm.Applicable(fpm.Eclat), 3)
	if err != nil {
		panic(err)
	}
	lines := make([]string, 0, len(sets))
	for _, s := range sets {
		lines = append(lines, fmt.Sprintf("%v x%d", s.Items, s.Support))
	}
	sort.Strings(lines)
	fmt.Println(strings.Join(lines, "\n"))
	// Output:
	// [0 2 5] x3
	// [0 2] x3
	// [0 5] x3
	// [0] x3
	// [2 5] x4
	// [2] x4
	// [5] x4
}

func ExampleLexOrder() {
	lexed, ord := fpm.LexOrder(paperDB())
	// After reordering, the most frequent item (c, encoded 2) has rank 0
	// and all transactions containing it are contiguous — Table 1 of the
	// paper.
	fmt.Println("rank 0 is original item", ord.Orig[0])
	for _, t := range lexed.Tx {
		fmt.Println(t)
	}
	// Output:
	// rank 0 is original item 2
	// [0 1 2]
	// [0 1 2]
	// [0 1 2 3 4 5]
	// [0 1 3]
	// [4 5]
}

func ExampleRecommend() {
	// A dense correlated basket workload: the autotuner picks the
	// vertical bit-matrix kernel with SIMDized counting.
	db := fpm.GenerateQuest(fpm.QuestConfig{
		Transactions: 1000, AvgLen: 20, AvgPatternLen: 5,
		Items: 100, Patterns: 30, Seed: 1,
	})
	rec := fpm.Recommend(db, 100)
	fmt.Println(rec)
	// Output:
	// eclat with SIMD
}

func ExampleSimulate() {
	db := fpm.GenerateQuest(fpm.QuestConfig{
		Transactions: 500, AvgLen: 12, AvgPatternLen: 4,
		Items: 80, Patterns: 20, Seed: 2,
	})
	base, err := fpm.Simulate(fpm.Eclat, db, 25, 0, fpm.M1())
	if err != nil {
		panic(err)
	}
	simd, err := fpm.Simulate(fpm.Eclat, db, 25, fpm.PatternSet(fpm.SIMD), fpm.M1())
	if err != nil {
		panic(err)
	}
	fmt.Printf("SIMD helps on the Pentium D model: %v\n",
		simd.TotalCycles() < base.TotalCycles())
	// Output:
	// SIMD helps on the Pentium D model: true
}
