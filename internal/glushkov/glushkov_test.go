package glushkov

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ringrpq/internal/pathexpr"
)

// testIDs maps predicate names a..h (and inverses) to stable ids.
func testIDs(s pathexpr.Sym) (uint32, bool) {
	if len(s.Name) != 1 || s.Name[0] < 'a' || s.Name[0] > 'h' {
		return 0, false
	}
	id := uint32(s.Name[0]-'a') * 2
	if s.Inverse {
		id++
	}
	return id, true
}

func sym(name string) pathexpr.Sym { return pathexpr.Sym{Name: name} }

func toWord(syms []pathexpr.Sym) []uint32 {
	w := make([]uint32, len(syms))
	for i, s := range syms {
		id, ok := testIDs(s)
		if !ok {
			id = NoSymbol - 1 // unknown but concrete symbol
		}
		w[i] = id
	}
	return w
}

func mustEngine(t *testing.T, expr string) *Engine {
	t.Helper()
	a := Build(pathexpr.MustParse(expr), testIDs)
	e, err := NewEngineFor(a, 0)
	if err != nil {
		t.Fatalf("NewEngineFor(%q): %v", expr, err)
	}
	return e
}

func TestPaperFig2(t *testing.T) {
	// The automaton of a/b*/b (Fig. 2): 4 states, final = position 3.
	a := Build(pathexpr.MustParse("a/b*/b"), testIDs)
	if a.M != 3 {
		t.Fatalf("M=%d, want 3", a.M)
	}
	if a.Nullable {
		t.Fatal("a/b*/b must not be nullable")
	}
	e, err := NewEngineFor(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := testIDs(sym("a"))
	idB, _ := testIDs(sym("b"))
	// B[a] marks position 1 only; B[b] marks positions 2 and 3
	// (the paper's 0100 and 0011 with its high-bit-first layout).
	if e.B[idA] != 1<<1 {
		t.Errorf("B[a]=%b, want %b", e.B[idA], 1<<1)
	}
	if e.B[idB] != 1<<2|1<<3 {
		t.Errorf("B[b]=%b", e.B[idB])
	}
	if e.F != 1<<3 {
		t.Errorf("F=%b, want position 3 final", e.F)
	}
	// Replay the worked word abb backwards, from the final state.
	d := e.F
	d = e.StepRev(d, idB) // position 3 is entered from 1 and 2
	if d != 1<<1|1<<2 || e.AcceptsRev(d) {
		t.Fatalf("after b: D=%b accept=%v", d, e.AcceptsRev(d))
	}
	d = e.StepRev(d, idB) // position 2 is entered from 1 and 2
	if d != 1<<1|1<<2 {
		t.Fatalf("after bb: D=%b", d)
	}
	d = e.StepRev(d, idA) // position 1 is entered from the start
	if d != e.Init || !e.AcceptsRev(d) {
		t.Fatalf("after abb: D=%b, want the initial state", d)
	}
	// abba ends in a, which no final position reads.
	if e.StepRev(e.F, idA) != 0 || e.MatchRev([]uint32{idA, idB, idB, idA}) {
		t.Fatal("abba must die on its last symbol")
	}
}

func TestPaperFig5Reverse(t *testing.T) {
	// ^bus/l5*/l5 reverse-simulated, as the RPQ engine uses it (§4).
	ids := func(s pathexpr.Sym) (uint32, bool) {
		switch {
		case s.Name == "bus" && s.Inverse:
			return 10, true
		case s.Name == "l5" && !s.Inverse:
			return 11, true
		}
		return 0, false
	}
	a := Build(pathexpr.MustParse("^bus/l5*/l5"), ids)
	e, err := NewEngineFor(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse reading of the word ^bus·l5 (a path BA -l5-> Baq read
	// backwards from Baq): start at F, read l5 then ^bus, reach initial.
	d := e.F
	d = e.StepRev(d, 11)
	if d == 0 {
		t.Fatal("no states after reading l5 in reverse")
	}
	if e.AcceptsRev(d) {
		t.Fatal("must not accept before reading ^bus")
	}
	d = e.StepRev(d, 10)
	if !e.AcceptsRev(d) {
		t.Fatal("must accept after ^bus·l5 read in reverse")
	}
}

func TestEmptyWordAcceptance(t *testing.T) {
	for expr, want := range map[string]bool{
		"a*":      true,
		"a+":      false,
		"a?":      true,
		"a":       false,
		"()":      true,
		"a*/b*":   true,
		"a/b?":    false,
		"(a|b?)+": true,
	} {
		e := mustEngine(t, expr)
		if got := e.MatchRev(nil); got != want {
			t.Errorf("%q accepts empty = %v, want %v", expr, got, want)
		}
	}
}

// randomExprStr builds a random expression over a small alphabet.
func randomExpr(rng *rand.Rand, depth int) pathexpr.Node {
	if depth == 0 || rng.Intn(3) == 0 {
		return pathexpr.Sym{Name: string(rune('a' + rng.Intn(3))), Inverse: rng.Intn(5) == 0}
	}
	switch rng.Intn(5) {
	case 0:
		return pathexpr.Concat{L: randomExpr(rng, depth-1), R: randomExpr(rng, depth-1)}
	case 1:
		return pathexpr.Alt{L: randomExpr(rng, depth-1), R: randomExpr(rng, depth-1)}
	case 2:
		return pathexpr.Star{X: randomExpr(rng, depth-1)}
	case 3:
		return pathexpr.Plus{X: randomExpr(rng, depth-1)}
	default:
		return pathexpr.Opt{X: randomExpr(rng, depth-1)}
	}
}

func randomWord(rng *rand.Rand, maxLen int) []pathexpr.Sym {
	w := make([]pathexpr.Sym, rng.Intn(maxLen+1))
	for i := range w {
		w[i] = pathexpr.Sym{Name: string(rune('a' + rng.Intn(3))), Inverse: rng.Intn(5) == 0}
	}
	return w
}

// The engine must agree with the executable specification pathexpr.Matches
// on random expressions and words.
func TestEngineMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomExpr(rng, 4)
		a := Build(n, testIDs)
		e, err := NewEngineFor(a, 0)
		if err != nil {
			return true // too many positions for the 64-bit engine
		}
		for i := 0; i < 20; i++ {
			w := randomWord(rng, 6)
			want := pathexpr.Matches(n, w)
			word := toWord(w)
			if e.MatchRev(word) != want {
				t.Logf("expr=%s word=%v want=%v", pathexpr.String(n), w, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// All split widths must implement the same reverse transition function.
func TestSplitWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := randomExpr(rng, 5)
		a := Build(n, testIDs)
		if a.M+1 > MaxEngineStates {
			continue
		}
		ref, err := NewEngineSplitFor(a, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{2, 3, 8, 13, 16} {
			e, err := NewEngineSplitFor(a, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				x := rng.Uint64() & (1<<uint(a.M+1) - 1)
				if e.Trev(x) != ref.Trev(x) {
					t.Fatalf("d=%d Trev(%b)=%b, want %b (expr %s)", d, x, e.Trev(x), ref.Trev(x), pathexpr.String(n))
				}
			}
		}
	}
}

// The engine's width is the parser's limit: an automaton of
// pathexpr.MaxPositions positions runs in one word, and a hand-built
// tree one position wider is refused with pathexpr.ErrTooLarge.
func TestEngineWidthLimit(t *testing.T) {
	idA, _ := testIDs(sym("a"))
	idB, _ := testIDs(sym("b"))
	// a/b/a/… with m positions, built by hand past the parser, and the
	// one word it matches.
	build := func(m int) (pathexpr.Node, []uint32) {
		var n pathexpr.Node = sym("a")
		word := []uint32{idA}
		for i := 1; i < m; i++ {
			s, id := sym("b"), idB
			if i%2 == 0 {
				s, id = sym("a"), idA
			}
			n = pathexpr.Concat{L: n, R: s}
			word = append(word, id)
		}
		return n, word
	}
	n, word := build(pathexpr.MaxPositions)
	a := Build(n, testIDs)
	if a.M+1 != MaxEngineStates {
		t.Fatalf("M=%d, want %d", a.M, MaxEngineStates-1)
	}
	e, err := NewEngineFor(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !e.MatchRev(word) {
		t.Fatal("engine rejects the defining word")
	}
	if e.MatchRev(word[:len(word)-1]) || e.MatchRev(word[1:]) {
		t.Fatal("engine accepts a strict prefix or suffix")
	}
	n, _ = build(pathexpr.MaxPositions + 1)
	if _, err := NewEngineFor(Build(n, testIDs), 0); !errors.Is(err, pathexpr.ErrTooLarge) {
		t.Fatalf("NewEngineFor past the limit: err=%v, want ErrTooLarge", err)
	}
}

func TestUnknownPredicateNeverMatches(t *testing.T) {
	// 'z' is unknown to testIDs: a/z can never match, a|z behaves as a.
	e := mustEngine(t, "a|z")
	idA, _ := testIDs(sym("a"))
	if !e.MatchRev([]uint32{idA}) {
		t.Fatal("a|z must accept a")
	}
	e2 := mustEngine(t, "a/z")
	if e2.MatchRev([]uint32{idA, NoSymbol}) {
		t.Fatal("NoSymbol transitions must never fire")
	}
}

func TestAlphabet(t *testing.T) {
	a := Build(pathexpr.MustParse("a/b*/b|^a"), testIDs)
	got := a.Alphabet()
	if len(got) != 3 { // a, b, ^a
		t.Fatalf("Alphabet=%v, want 3 distinct", got)
	}
}

func TestFollowSetsOfStar(t *testing.T) {
	// In (a|b)*, every position follows every position and the start.
	a := Build(pathexpr.MustParse("(a|b)*"), testIDs)
	for i := 0; i <= 2; i++ {
		if len(a.Follow[i]) != 2 {
			t.Fatalf("Follow[%d]=%v, want both positions", i, a.Follow[i])
		}
	}
	if !a.Nullable {
		t.Fatal("(a|b)* must be nullable")
	}
}

func TestInverseEngineDuality(t *testing.T) {
	// w ∈ L(E) iff reverse-invert(w) ∈ L(Ê) — the rewriting the RPQ
	// engine relies on for (s, E, y) queries (§4.4).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomExpr(rng, 4)
		inv := pathexpr.InverseOf(n)
		a1 := Build(n, testIDs)
		a2 := Build(inv, testIDs)
		e1, err1 := NewEngineFor(a1, 0)
		e2, err2 := NewEngineFor(a2, 0)
		if err1 != nil || err2 != nil {
			return true
		}
		for i := 0; i < 10; i++ {
			w := randomWord(rng, 5)
			rw := make([]pathexpr.Sym, len(w))
			for j, s := range w {
				rw[len(w)-1-j] = pathexpr.Sym{Name: s.Name, Inverse: !s.Inverse}
			}
			if e1.MatchRev(toWord(w)) != e2.MatchRev(toWord(rw)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStepRevSplit8(b *testing.B) {
	expr := "a"
	for i := 0; i < 20; i++ {
		expr += "/(b|c)"
	}
	a := Build(pathexpr.MustParse(expr), testIDs)
	e, _ := NewEngineSplitFor(a, 8, 0)
	idB, _ := testIDs(sym("b"))
	d := e.F
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = e.StepRev(d|e.F, idB)
	}
}

// Symbol classes: the engine with classes must agree with the spec
// matcher under a completed-alphabet encoding.
func TestNegClassEngine(t *testing.T) {
	// Completed alphabet of 3 base predicates: ids 0,2,4 forward would
	// not be contiguous; use the standard layout instead: base ids 0..2,
	// inverses 3..5.
	const numCompleted = 6
	ids := func(s pathexpr.Sym) (uint32, bool) {
		var base uint32
		switch s.Name {
		case "a":
			base = 0
		case "b":
			base = 1
		case "c":
			base = 2
		default:
			return 0, false
		}
		if s.Inverse {
			base += 3
		}
		return base, true
	}
	exprs := []string{"!a", "!(a|b)", "!^c", "!a/b", "(!b)+", "a|!(a|b|c)"}
	words := [][]pathexpr.Sym{
		{{Name: "a"}}, {{Name: "b"}}, {{Name: "c"}},
		{{Name: "a", Inverse: true}}, {{Name: "c", Inverse: true}},
		{{Name: "a"}, {Name: "b"}}, {{Name: "c"}, {Name: "c"}}, nil,
	}
	for _, es := range exprs {
		n := pathexpr.MustParse(es)
		a := Build(n, ids)
		if _, err := NewEngineFor(a, 0); a.HasClasses() && err == nil {
			t.Fatalf("%s: NewEngineFor must refuse classes without alphabet size", es)
		}
		e, err := NewEngineFor(a, numCompleted)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range words {
			enc := make([]uint32, len(word))
			for i, s := range word {
				enc[i], _ = ids(s)
			}
			want := pathexpr.Matches(n, word)
			if e.MatchRev(enc) != want {
				t.Fatalf("%s on %v: engine=%v want %v", es, word, e.MatchRev(enc), want)
			}
		}
	}
}

func TestClassMatches(t *testing.T) {
	cl := &Class{Inverse: false, Excl: []uint32{1, 2}}
	if cl.Matches(1, 6) || cl.Matches(2, 6) {
		t.Error("excluded ids must not match")
	}
	if !cl.Matches(0, 6) {
		t.Error("non-excluded forward id must match")
	}
	if cl.Matches(4, 6) {
		t.Error("inverse-direction id must not match a forward class")
	}
}
