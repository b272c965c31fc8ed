package ring

import (
	"math/rand"
	"testing"

	"ringrpq/internal/triples"
)

func TestSelectivityDistinctCounts(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	sel := NewSelectivity(r)
	// Per predicate: distinct subjects, vs direct counting.
	for p := uint32(0); p < g.NumCompletedPreds(); p++ {
		b, e := r.PredRange(p)
		want := map[uint32]bool{}
		for _, tr := range g.Triples {
			if tr.P == p {
				want[tr.S] = true
			}
		}
		if got := sel.DistinctSubjects(b, e); got != len(want) {
			t.Fatalf("pred %s: DistinctSubjects=%d, want %d", g.PredName(p), got, len(want))
		}
	}
	// Degenerate ranges.
	if sel.DistinctSubjects(3, 3) != 0 || sel.DistinctSubjects(-5, 0) != 0 {
		t.Fatal("empty ranges must count zero")
	}
	if sel.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestSelectivityRandomRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := triples.NewBuilder()
	for i := 0; i < 60; i++ {
		b.Nodes().Intern(string(rune('A'+i%26)) + string(rune('a'+i/26)))
	}
	for i := 0; i < 6; i++ {
		b.Preds().Intern("p" + string(rune('0'+i)))
	}
	for i := 0; i < 400; i++ {
		b.AddIDs(uint32(rng.Intn(60)), uint32(rng.Intn(6)), uint32(rng.Intn(60)))
	}
	g := b.Build()
	r := New(g, WaveletMatrix)
	sel := NewSelectivity(r)
	for trial := 0; trial < 50; trial++ {
		x := rng.Intn(r.N)
		y := rng.Intn(r.N)
		if x > y {
			x, y = y, x
		}
		wantS := map[uint32]bool{}
		for i := x; i < y; i++ {
			wantS[r.Ls.Access(i)] = true
		}
		if got := sel.DistinctSubjects(x, y); got != len(wantS) {
			t.Fatalf("[%d,%d): DistinctSubjects=%d, want %d", x, y, got, len(wantS))
		}
	}
	// The structure roughly doubles the index asymptotically (log n vs
	// log σ bits per position); at this toy scale constant overheads
	// dominate, so only sanity-check the order of magnitude.
	if sel.SizeBytes() < r.QuerySizeBytes()/4 || sel.SizeBytes() > 16*r.SizeBytes() {
		t.Fatalf("selectivity size %d vs ring %d out of expected band", sel.SizeBytes(), r.SizeBytes())
	}
}
