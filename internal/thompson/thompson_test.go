package thompson

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
)

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

func toWord(syms []pathexpr.Sym) []uint32 {
	w := make([]uint32, len(syms))
	for i, s := range syms {
		w[i], _ = testIDs(s)
	}
	return w
}

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

func TestNoEpsilonTransitionsRemain(t *testing.T) {
	// After removal, every transition consumes a concrete symbol; we
	// check by construction: Trans only holds Edge values with real syms.
	n := Build(pathexpr.MustParse("(a|b)*/c?"), testIDs)
	for q, edges := range n.Trans {
		for _, e := range edges {
			if e.Sym == glushkov.NoSymbol {
				t.Fatalf("state %d has a NoSymbol edge", q)
			}
		}
	}
}

func TestMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		expr := randomExpr(rng, 4)
		nfa := Build(expr, testIDs)
		for i := 0; i < 20; i++ {
			w := randomWord(rng, 6)
			if nfa.Match(toWord(w)) != pathexpr.Matches(expr, w) {
				t.Logf("expr=%s word=%v", pathexpr.String(expr), w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAgreesWithGlushkov(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		expr := randomExpr(rng, 4)
		nfa := Build(expr, testIDs)
		a := glushkov.Build(expr, testIDs)
		ge, err := glushkov.NewEngineFor(a, 0)
		if err != nil {
			return true
		}
		if nfa.MatchesEmpty() != a.Nullable {
			return false
		}
		for i := 0; i < 15; i++ {
			w := toWord(randomWord(rng, 6))
			if nfa.Match(w) != ge.MatchRev(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRevMirrorsTrans(t *testing.T) {
	n := Build(pathexpr.MustParse("a/(b|c)+/a?"), testIDs)
	fwd := map[[3]int32]bool{}
	for q, edges := range n.Trans {
		for _, e := range edges {
			fwd[[3]int32{int32(q), int32(e.Sym), e.To}] = true
		}
	}
	count := 0
	for q, edges := range n.Rev {
		for _, e := range edges {
			if !fwd[[3]int32{e.To, int32(e.Sym), int32(q)}] {
				t.Fatalf("Rev edge %v of %d has no forward mirror", e, q)
			}
			count++
		}
	}
	if count != len(fwd) {
		t.Fatalf("Rev has %d edges, Trans has %d", count, len(fwd))
	}
}

func TestUnknownPredicate(t *testing.T) {
	nfa := Build(pathexpr.MustParse("a|z"), testIDs)
	idA, _ := testIDs(pathexpr.Sym{Name: "a"})
	if !nfa.Match([]uint32{idA}) {
		t.Fatal("a|z must accept a")
	}
	nfa2 := Build(pathexpr.MustParse("z"), testIDs)
	if nfa2.Match([]uint32{idA}) || nfa2.MatchesEmpty() {
		t.Fatal("z alone must accept nothing")
	}
}
