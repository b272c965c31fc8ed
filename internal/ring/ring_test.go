package ring

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
)

// fig1Graph builds the completed Santiago graph exactly as in Fig. 3:
// bidirectional metro edges plus bus edges completed with ^bus.
func fig1Graph() *triples.Graph {
	b := triples.NewBuilder()
	add := func(s, p, o string) { b.Add(s, p, o); b.Add(o, p, s) }
	add("Baq", "l1", "UCh")
	add("UCh", "l1", "LH")
	add("LH", "l2", "SA")
	add("SA", "l5", "BA")
	add("BA", "l5", "Baq")
	b.Add("SA", "bus", "UCh")
	b.Add("SA", "bus", "BA")
	return b.Build()
}

func TestRingBasics(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	if r.N != g.Len() {
		t.Fatalf("N=%d, want %d", r.N, g.Len())
	}
	if r.Lo.Len() != r.N || r.Ls.Len() != r.N || r.Lp.Len() != r.N {
		t.Fatalf("sequence lengths differ from N")
	}
	if r.Cs[len(r.Cs)-1] != r.N || r.Cp[len(r.Cp)-1] != r.N || r.Co[len(r.Co)-1] != r.N {
		t.Fatalf("C arrays do not end at N")
	}
}

// Every triple must be reconstructible from its L_p position, and the LF
// cycle L_p → L_s → L_o → L_p must return to the start (§3.4 example).
func TestLFCycle(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	seen := map[triples.Triple]bool{}
	for i := 0; i < r.N; i++ {
		tr := r.TripleAt(i)
		if seen[tr] {
			t.Fatalf("duplicate triple %v from position %d", tr, i)
		}
		seen[tr] = true
		back := r.LFo(r.LFs(r.LFp(i)))
		if back != i {
			t.Fatalf("LF cycle from %d returns %d", i, back)
		}
	}
	for _, tr := range g.Triples {
		if !seen[tr] {
			t.Fatalf("triple %v not reconstructed", g.String(tr))
		}
	}
}

// Object ranges of L_p must contain exactly the predicates of edges into
// that object.
func TestObjectRanges(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	for o := uint32(0); int(o) < g.NumNodes(); o++ {
		b, e := r.ObjectRange(o)
		var got []uint32
		for i := b; i < e; i++ {
			got = append(got, r.Lp.Access(i))
		}
		var want []uint32
		for _, tr := range g.Triples {
			if tr.O == o {
				want = append(want, tr.P)
			}
		}
		sortU32(got)
		sortU32(want)
		if !equalU32(got, want) {
			t.Fatalf("object %s: preds %v, want %v", g.Nodes.Name(o), got, want)
		}
	}
}

// BackwardByPred must yield exactly the subjects of (s,p,o) triples.
func TestBackwardSearchStep(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	for o := uint32(0); int(o) < g.NumNodes(); o++ {
		bo, eo := r.ObjectRange(o)
		for p := uint32(0); p < g.NumCompletedPreds(); p++ {
			bp, ep := r.BackwardByPred(bo, eo, p)
			var got []uint32
			for i := bp; i < ep; i++ {
				got = append(got, r.Ls.Access(i))
			}
			var want []uint32
			for _, tr := range g.Triples {
				if tr.O == o && tr.P == p {
					want = append(want, tr.S)
				}
			}
			sortU32(got)
			sortU32(want)
			if !equalU32(got, want) {
				t.Fatalf("o=%s p=%s: subjects %v, want %v",
					g.Nodes.Name(o), g.PredName(p), got, want)
			}
		}
	}
}

// The worked example of §3.4: the triple at L_p[16] (1-based) is
// BA -l5-> Baq, with LFp(16)=10 and LFs(10)=12 (0-based: 15, 9, 11).
func TestPaperWorkedExample(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	// The paper's node numbering is SA=1 UCh=2 LH=3 BA=4 Baq=5 and
	// l1=1 l2=2 l5=3 bus=4 ^bus=5; ours follows insertion order, so we
	// locate the triple by value instead of by fixed position.
	ba, _ := g.Nodes.Lookup("BA")
	baq, _ := g.Nodes.Lookup("Baq")
	l5, _ := g.PredID("l5", false)
	found := false
	for i := 0; i < r.N; i++ {
		tr := r.TripleAt(i)
		if tr.S == ba && tr.P == l5 && tr.O == baq {
			found = true
			// The position must lie in Baq's object range.
			b, e := r.ObjectRange(baq)
			if i < b || i >= e {
				t.Fatalf("BA-l5->Baq at %d outside Baq's range [%d,%d)", i, b, e)
			}
			// The LF step must land in l5's predicate range of L_s.
			j := r.LFp(i)
			pb, pe := r.PredRange(l5)
			if j < pb || j >= pe {
				t.Fatalf("LFp(%d)=%d outside l5's range [%d,%d)", i, j, pb, pe)
			}
			if got := r.Ls.Access(j); got != ba {
				t.Fatalf("subject at LFp position = %d, want BA", got)
			}
		}
	}
	if !found {
		t.Fatal("BA -l5-> Baq not found in ring")
	}
}

// Random graphs: the ring must reconstruct exactly the input triple set.
func TestRandomGraphsReconstruct(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := triples.NewBuilder()
		nv, np, ne := 20+rng.Intn(30), 1+rng.Intn(5), 100+rng.Intn(200)
		for i := 0; i < ne; i++ {
			b.AddIDs(
				uint32(rng.Intn(nv)),
				uint32(rng.Intn(np)),
				uint32(rng.Intn(nv)))
		}
		// Intern node names so NumNodes covers the id space.
		for i := 0; i < nv; i++ {
			b.Nodes().Intern(string(rune('A'+i%26)) + string(rune('0'+i/26)))
		}
		for i := 0; i < np; i++ {
			b.Preds().Intern("p" + string(rune('0'+i)))
		}
		g := b.Build()
		r := New(g, WaveletMatrix)
		got := map[triples.Triple]bool{}
		for i := 0; i < r.N; i++ {
			got[r.TripleAt(i)] = true
		}
		if len(got) != g.Len() {
			t.Fatalf("seed %d: %d distinct triples, want %d", seed, len(got), g.Len())
		}
		for _, tr := range g.Triples {
			if !got[tr] {
				t.Fatalf("seed %d: missing %v", seed, tr)
			}
		}
	}
}

// BackwardBySubj and BackwardByObj complete the cycle: starting from a
// subject range of L_o... they must agree with direct filtering.
func TestBackwardOtherAxes(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	// For predicate l5: its L_s range lists subjects; stepping one of
	// them backwards yields the L_o range of triples (p=l5, s).
	l5, _ := g.PredID("l5", false)
	pb, pe := r.PredRange(l5)
	subs := map[uint32]bool{}
	for i := pb; i < pe; i++ {
		subs[r.Ls.Access(i)] = true
	}
	for s := range subs {
		ob, oe := r.BackwardBySubj(pb, pe, s)
		var got []uint32
		for i := ob; i < oe; i++ {
			got = append(got, r.Lo.Access(i))
		}
		var want []uint32
		for _, tr := range g.Triples {
			if tr.P == l5 && tr.S == s {
				want = append(want, tr.O)
			}
		}
		sortU32(got)
		sortU32(want)
		if !equalU32(got, want) {
			t.Fatalf("s=%s by l5: objects %v, want %v", g.Nodes.Name(s), got, want)
		}
	}
}

// RangeDistinct over an object range of L_p enumerates the distinct
// incoming predicates — part one of the RPQ step (§4.1).
func TestDistinctPredsIntoObject(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	baq, _ := g.Nodes.Lookup("Baq")
	b, e := r.ObjectRange(baq)
	got := map[string]bool{}
	wavelet.RangeDistinct(r.Lp, b, e, func(c uint32, rb, re int) {
		got[g.PredName(c)] = true
	})
	// Edges into Baq: l1 (from UCh), l5 (from BA), plus their completion
	// inverses (unlike Fig. 3, we complete every predicate, not only bus).
	want := map[string]bool{"l1": true, "l5": true, "^l1": true, "^l5": true}
	if len(got) != len(want) {
		t.Fatalf("incoming preds of Baq = %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing incoming pred %s", k)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	if r.QuerySizeBytes() >= r.SizeBytes() {
		t.Fatal("query size must exclude L_o")
	}
	if r.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func sortU32(x []uint32) { sort.Slice(x, func(i, j int) bool { return x[i] < x[j] }) }

func equalU32(a, b []uint32) bool {
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

func benchGraph() *triples.Graph {
	rng := rand.New(rand.NewSource(1))
	tb := triples.NewBuilder()
	for i := 0; i < 5000; i++ {
		tb.Nodes().Intern(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < 50; i++ {
		tb.Preds().Intern(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 50000; i++ {
		tb.AddIDs(uint32(rng.Intn(5000)), uint32(rng.Intn(50)), uint32(rng.Intn(5000)))
	}
	return tb.Build()
}

func BenchmarkBackwardByPred(b *testing.B) {
	g := benchGraph()
	r := New(g, WaveletMatrix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := uint32(i % 5000)
		bo, eo := r.ObjectRange(o)
		r.BackwardByPred(bo, eo, uint32(i%100))
	}
}
