package glushkov

import (
	"math/rand"
	"strings"
	"testing"

	"ringrpq/internal/pathexpr"
)

func mustEngineFor(t *testing.T, expr string, numCompleted uint32) *Engine {
	t.Helper()
	a := Build(pathexpr.MustParse(expr), testIDs)
	e, err := NewEngineFor(a, numCompleted)
	if err != nil {
		t.Fatalf("NewEngineFor(%q): %v", expr, err)
	}
	return e
}

// specB is B[c] read off the automaton's labels: the positions whose
// symbol is c or whose class holds c in an alphabet of numCompleted ids.
func specB(a *Automaton, c, numCompleted uint32) uint64 {
	var b uint64
	for j, s := range a.Syms {
		cl := a.Classes[j]
		if s == c || cl != nil && c < numCompleted && cl.Matches(c, numCompleted) {
			b |= 1 << uint(j+1)
		}
	}
	return b
}

// specTrev is T'[x] read off the follow sets: the states some of whose
// successors lie in x.
func specTrev(a *Automaton, x uint64) uint64 {
	var r uint64
	for i, fs := range a.Follow {
		for _, j := range fs {
			if x&(1<<uint(j)) != 0 {
				r |= 1 << uint(i)
				break
			}
		}
	}
	return r
}

// A compiled stepper must give the B[c] and T' of the automaton's own
// labels and follow sets: exhaustively over the state space up to 16
// states, sampled over the chunked table beyond, with symbol classes,
// and for ids past the dense table.
func TestCompiledStepperMatchesInterpreter(t *testing.T) {
	// 9 two-way alternations concatenated: 19 states, beyond the single
	// full-table threshold, so the reverse table has three chunks.
	wide := strings.TrimSuffix(strings.Repeat("(a|b)/", 9), "/")
	exprs := []string{
		"a", "^a", "a/b/c", "a|b|c", "a/b*/b", "(a|b)+", "(a|b*)/c?",
		"a?", "(a/b)*|c", "!(a)", "!(a|b)/c", "!^a|b", "!(a)*", "h/^g", wide,
	}
	rng := rand.New(rand.NewSource(7))
	const numCompleted = 16
	for _, expr := range exprs {
		e := mustEngineFor(t, expr, numCompleted)
		// numPreds 3 leaves every id from 3 on, and so every class
		// position's inverse half, past the dense table.
		for _, numPreds := range []uint32{numCompleted, 3} {
			st := Compile(e, numPreds)
			for c := uint32(0); c < 20; c++ {
				if got, want := st.PredMask(c), specB(e.A, c, numCompleted); got != want {
					t.Errorf("%q, %d preds: PredMask(%d) = %b, want %b", expr, numPreds, c, got, want)
				}
			}
		}
		st := Compile(e, numCompleted)
		nbits := uint(e.A.M + 1)
		if nbits <= fullTableBits {
			for x := uint64(0); x < 1<<nbits; x++ {
				if got, want := st.StepBack(x), specTrev(e.A, x); got != want {
					t.Fatalf("%q: StepBack(%b) = %b, want %b", expr, x, got, want)
				}
			}
			continue
		}
		for i := 0; i < 4096; i++ {
			x := rng.Uint64() & (1<<nbits - 1)
			if got, want := st.StepBack(x), specTrev(e.A, x); got != want {
				t.Fatalf("%q: StepBack(%b) = %b, want %b", expr, x, got, want)
			}
		}
	}
}

// BenchmarkStepBack times one compiled reverse step, called through a
// *Stepper as the traversal kernel holds it.
func BenchmarkStepBack(b *testing.B) {
	a := Build(pathexpr.MustParse("a/(b|c)*/a/b+/c?"), testIDs)
	e, err := NewEngineFor(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	st := Compile(e, 16)
	d := e.F
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = st.StepBack(d | e.F)
	}
	if d == 0 {
		b.Fatal("the reverse step lost every state")
	}
}
