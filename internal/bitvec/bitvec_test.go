package bitvec

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("Set(%d) did not stick", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("Clear(%d) did not stick", i)
		}
	}
}

func TestLenWords(t *testing.T) {
	cases := []struct{ n, words int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}}
	for _, c := range cases {
		v := New(c.n)
		if v.Len() != c.n || v.Words() != c.words {
			t.Errorf("New(%d): Len=%d Words=%d, want %d/%d", c.n, v.Len(), v.Words(), c.n, c.words)
		}
	}
}

func TestFromIndicesAndIndices(t *testing.T) {
	idx := []int{3, 64, 100, 199}
	v := FromIndices(200, idx)
	if got := v.Indices(); !reflect.DeepEqual(got, idx) {
		t.Fatalf("Indices = %v, want %v", got, idx)
	}
	if v.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", v.Count(), len(idx))
	}
}

func TestCountVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := randVec(rng, 1+rng.Intn(500), rng.Float64())
		want := len(v.Indices())
		if got := v.Count(); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
		if got := v.CountTable(); got != want {
			t.Fatalf("CountTable = %d, want %d", got, want)
		}
		if got := v.CountSWAR(); got != want {
			t.Fatalf("CountSWAR = %d, want %d", got, want)
		}
	}
}

func TestAndMatchesSetIntersection(t *testing.T) {
	a := FromIndices(100, []int{1, 5, 70, 99})
	b := FromIndices(100, []int{5, 6, 70})
	dst := New(100)
	And(dst, a, b)
	if got, want := dst.Indices(), []int{5, 70}; !reflect.DeepEqual(got, want) {
		t.Fatalf("And = %v, want %v", got, want)
	}
}

func TestAndAliasing(t *testing.T) {
	a := FromIndices(70, []int{1, 65})
	b := FromIndices(70, []int{1, 2})
	And(a, a, b) // dst aliases a
	if got, want := a.Indices(), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("aliased And = %v, want %v", got, want)
	}
}

func TestAndCountFusedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		a := randVec(rng, n, 0.3)
		b := randVec(rng, n, 0.3)
		ref := New(n)
		And(ref, a, b)
		want := ref.Count()

		d1 := New(n)
		if got := AndCount(d1, a, b); got != want || !Equal(d1, ref) {
			t.Fatalf("AndCount = %d (vec ok=%v), want %d", got, Equal(d1, ref), want)
		}
		d2 := New(n)
		if got := AndCountTable(d2, a, b); got != want || !Equal(d2, ref) {
			t.Fatalf("AndCountTable = %d, want %d", got, want)
		}
	}
}

func TestRangeExact(t *testing.T) {
	cases := []struct {
		bits []int
		n    int
		want OneRange
	}{
		{nil, 256, OneRange{}},
		{[]int{0}, 256, OneRange{0, 1}},
		{[]int{255}, 256, OneRange{3, 4}},
		{[]int{64, 130}, 256, OneRange{1, 3}},
		{[]int{63, 64}, 256, OneRange{0, 2}},
	}
	for _, c := range cases {
		v := FromIndices(c.n, c.bits)
		if got := v.Range(); got != c.want {
			t.Errorf("Range(%v) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestOneRangeIntersect(t *testing.T) {
	cases := []struct{ a, b, want OneRange }{
		{OneRange{0, 4}, OneRange{2, 6}, OneRange{2, 4}},
		{OneRange{0, 2}, OneRange{3, 6}, OneRange{0, 0}},
		{OneRange{1, 5}, OneRange{1, 5}, OneRange{1, 5}},
		{OneRange{}, OneRange{0, 9}, OneRange{0, 0}},
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersect(c.a); got != c.want {
			t.Errorf("intersect not commutative: %v vs %v", got, c.want)
		}
	}
	if !(OneRange{}).Empty() || (OneRange{0, 1}).Empty() {
		t.Fatal("Empty() wrong")
	}
}

// Property: conservative range intersection is sound — AndCountRange over
// the intersected operand ranges counts exactly the true intersection.
func TestAndCountRangeSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(512)
		a := randVec(rng, n, 0.1)
		b := randVec(rng, n, 0.1)
		r := a.Range().Intersect(b.Range())
		dst := New(n)
		got := AndCountRange(dst, a, b, r)
		ref := New(n)
		want := AndCount(ref, a, b)
		if got != want {
			return false
		}
		// Every word inside r must match the full AND; outside r the full
		// AND must be zero (soundness of the conservative range).
		for i := 0; i < dst.Words(); i++ {
			if i >= r.Lo && i < r.Hi {
				if dst.Word(i) != ref.Word(i) {
					return false
				}
			} else if ref.Word(i) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count is invariant under Clone, and Equal is reflexive on
// clones.
func TestCloneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng, 1+rng.Intn(300), 0.5)
		c := v.Clone()
		if !Equal(v, c) || c.Count() != v.Count() {
			return false
		}
		// Mutating the clone must not affect the original.
		c.Set(0)
		c.Clear(0)
		idx := v.Indices()
		if len(idx) > 0 {
			c.Clear(idx[0])
			return v.Get(idx[0])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if Equal(New(10), New(11)) {
		t.Fatal("vectors of different length compare equal")
	}
}

// scalarAndCount is the one-word-per-iteration fused loop that the
// unrolled kernel must match word for word.
func scalarAndCount(dw, aw, bw []uint64) int {
	c := 0
	for i := range dw {
		w := aw[i] & bw[i]
		dw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// TestUnrolledAndCountMatchesScalar checks AndCount and AndCountRange
// against the scalar loop for every length from 0 to 300 words, covering
// each remainder of the four-way unroll, and for random ranges: the same
// count, the same words inside the range, and untouched words outside it.
func TestUnrolledAndCountMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	garbage := func(n int) *Vector {
		v := New(n)
		for i := range v.words {
			v.words[i] = rng.Uint64()
		}
		return v
	}
	for words := 0; words <= 300; words++ {
		n := words * 64
		density := rng.Float64()
		a, b := randVec(rng, n, density), randVec(rng, n, density)
		ref := New(n)
		want := scalarAndCount(ref.words, a.words, b.words)
		dst := garbage(n)
		if got := AndCount(dst, a, b); got != want || !Equal(dst, ref) {
			t.Fatalf("%d words: AndCount = %d (words equal %v), scalar %d", words, got, Equal(dst, ref), want)
		}
		for trial := 0; trial < 8; trial++ {
			lo := rng.Intn(words + 1)
			hi := lo + rng.Intn(words-lo+1)
			r := OneRange{lo, hi}
			dst := garbage(n)
			ref := dst.Clone()
			want := scalarAndCount(ref.words[lo:hi], a.words[lo:hi], b.words[lo:hi])
			if got := AndCountRange(dst, a, b, r); got != want || !Equal(dst, ref) {
				t.Fatalf("%d words, range %v: AndCountRange = %d (words equal %v), scalar %d",
					words, r, got, Equal(dst, ref), want)
			}
		}
	}
}
