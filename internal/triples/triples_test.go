package triples

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// metroBuilder encodes the Santiago transport graph of Fig. 1.
func metroBuilder() *Builder {
	b := NewBuilder()
	// Metro lines are bidirectional: both directions present as in §5's
	// completion example (Fig. 3 adds ^bus only; l1, l2 and l5 already
	// appear in both directions).
	add := func(s, p, o string) { b.Add(s, p, o); b.Add(o, p, s) }
	add("Baquedano", "l1", "UCh")
	add("UCh", "l1", "LosHeroes")
	add("LosHeroes", "l2", "SantaAna")
	add("SantaAna", "l5", "BellasArtes")
	add("BellasArtes", "l5", "Baquedano")
	b.Add("SantaAna", "bus", "UCh")
	b.Add("SantaAna", "bus", "BellasArtes")
	return b
}

// less orders triples by (s,p,o): the comparison the sort.Slice-based
// Build used, kept as the oracle for the counting-sort one.
func less(a, b Triple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	bID := d.Intern("beta")
	if a == bID {
		t.Fatal("distinct names share an id")
	}
	if again := d.Intern("alpha"); again != a {
		t.Fatal("re-interning changes id")
	}
	if d.Name(a) != "alpha" || d.Name(bID) != "beta" {
		t.Fatal("Name round trip broken")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup invents entries")
	}
	if d.Len() != 2 {
		t.Fatalf("Len=%d", d.Len())
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder()
	b.Add("x", "p", "y")
	b.Add("x", "p", "y")
	g := b.Build()
	if g.Len() != 2 { // one edge + its inverse
		t.Fatalf("Len=%d, want 2", g.Len())
	}
}

// Build must yield exactly what the map-deduplicating, comparison-
// sorting builder yielded: the completed set, deduplicated, in (s,p,o)
// order (the workload generators index into it).
func TestBuildMatchesComparisonSort(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, np := 1+rng.Intn(40), 1+rng.Intn(6)
		b := NewBuilder()
		for i := 0; i < nv; i++ {
			b.Nodes().Intern(fmt.Sprint("n", i))
		}
		for i := 0; i < np; i++ {
			b.Preds().Intern(fmt.Sprint("p", i))
		}
		seen := map[Triple]bool{}
		var want []Triple
		for i := rng.Intn(400); i > 0; i-- {
			s, p, o := uint32(rng.Intn(nv)), uint32(rng.Intn(np)), uint32(rng.Intn(nv))
			b.AddIDs(s, p, o)
			if rng.Intn(3) == 0 {
				b.Add(fmt.Sprint("n", s), fmt.Sprint("p", p), fmt.Sprint("n", o)) // a duplicate by name
			}
			for _, t := range []Triple{{s, p, o}, {o, p + uint32(np), s}} {
				if !seen[t] {
					seen[t] = true
					want = append(want, t)
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		got := b.Build().Triples
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d triples, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Triples[%d] = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// SortBy is stable, returns the key's partition array, and refuses a
// key outside the id space before writing anything.
func TestSortBy(t *testing.T) {
	src := []Triple{{2, 0, 1}, {0, 1, 1}, {2, 1, 0}, {1, 0, 2}, {0, 0, 0}}
	dst := make([]Triple, len(src))
	c := make([]int, 4)
	SortBy(dst, src, ByS, c)
	want := []Triple{{0, 1, 1}, {0, 0, 0}, {1, 0, 2}, {2, 0, 1}, {2, 1, 0}}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("by S: dst = %v, want %v", dst, want)
		}
	}
	if c[0] != 0 || c[1] != 2 || c[2] != 3 || c[3] != 5 {
		t.Fatalf("by S: partition array %v, want [0 2 3 5]", c)
	}
	SortBy(dst, src, ByO, c[:4])
	if dst[0] != (Triple{2, 1, 0}) || dst[4] != (Triple{1, 0, 2}) {
		t.Fatalf("by O: dst = %v", dst)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SortBy accepted a key outside the id space")
		}
	}()
	SortBy(dst, src, ByS, make([]int, 3))
}

func TestCompletion(t *testing.T) {
	g := metroBuilder().Build()
	if g.NumPreds != 4 {
		t.Fatalf("NumPreds=%d, want 4 (l1,l2,l5,bus)", g.NumPreds)
	}
	if g.NumCompletedPreds() != 8 {
		t.Fatalf("completed preds=%d", g.NumCompletedPreds())
	}
	// 12 original (10 bidirectional metro + 2 bus) doubled by completion.
	if g.Len() != 24 {
		t.Fatalf("Len=%d, want 24", g.Len())
	}
	// Every edge must have its inverse present.
	set := map[Triple]bool{}
	for _, tr := range g.Triples {
		set[tr] = true
	}
	for _, tr := range g.Triples {
		inv := Triple{tr.O, g.Inverse(tr.P), tr.S}
		if !set[inv] {
			t.Fatalf("missing inverse of %v", g.String(tr))
		}
	}
	// Triples must be sorted by (s,p,o).
	if !sort.SliceIsSorted(g.Triples, func(i, j int) bool { return less(g.Triples[i], g.Triples[j]) }) {
		t.Fatal("triples not sorted")
	}
}

func TestInverseInvolution(t *testing.T) {
	g := metroBuilder().Build()
	for p := uint32(0); p < g.NumCompletedPreds(); p++ {
		if g.Inverse(g.Inverse(p)) != p {
			t.Fatalf("Inverse not an involution at %d", p)
		}
	}
}

func TestPredID(t *testing.T) {
	g := metroBuilder().Build()
	fwd, ok := g.PredID("bus", false)
	if !ok {
		t.Fatal("bus not found")
	}
	inv, ok := g.PredID("bus", true)
	if !ok || inv != fwd+g.NumPreds {
		t.Fatalf("PredID(^bus)=%d, want %d", inv, fwd+g.NumPreds)
	}
	if _, ok := g.PredID("train", false); ok {
		t.Fatal("unknown predicate resolved")
	}
	if got := g.PredName(inv); got != "^bus" {
		t.Fatalf("PredName=%q", got)
	}
}

func TestLoadDumpRoundTrip(t *testing.T) {
	src := `
# Santiago fragment
Baquedano l1 UCh .
UCh l1 LosHeroes
<http://ex.org/SantaAna> <http://ex.org/bus> UCh
`
	b := NewBuilder()
	if err := Load(strings.NewReader(src), b); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.Len() != 6 {
		t.Fatalf("Len=%d, want 6", g.Len())
	}
	if _, ok := g.Nodes.Lookup("http://ex.org/SantaAna"); !ok {
		t.Fatal("IRI node not interned")
	}

	var buf bytes.Buffer
	if err := Dump(&buf, g); err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder()
	if err := Load(&buf, b2); err != nil {
		t.Fatal(err)
	}
	if g2 := b2.Build(); g2.Len() != g.Len() {
		t.Fatalf("round trip Len=%d, want %d", g2.Len(), g.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	for _, src := range []string{"a b", "a b c d", "<unterminated b c"} {
		b := NewBuilder()
		if err := Load(strings.NewReader(src), b); err == nil {
			t.Errorf("Load(%q) succeeded, want error", src)
		}
	}
}

func TestAddIDs(t *testing.T) {
	b := NewBuilder()
	s := b.Nodes().Intern("s")
	p := b.Preds().Intern("p")
	o := b.Nodes().Intern("o")
	b.AddIDs(s, p, o)
	b.AddIDs(s, p, o)
	g := b.Build()
	if g.Len() != 2 {
		t.Fatalf("Len=%d, want 2", g.Len())
	}
}
