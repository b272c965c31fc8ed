package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// compiledAutomaton is one memoised Glushkov compilation. st and bArr
// are built by the expression's first evaluation: from then on every
// evaluation steps the compiled table against the expression's
// precomputed B[v] array with zero per-eval setup.
type compiledAutomaton struct {
	a   *glushkov.Automaton
	eng *glushkov.Engine
	st  *glushkov.Stepper
	// bArr is the immutable B[v] array over the memo's L_p.
	bArr []uint64
}

// maxCompiled bounds the per-engine compilation memo; on overflow the
// whole memo is dropped (rebuilding a handful of automata is cheaper
// than tracking recency).
const maxCompiled = 128

// compileMemo memoises Glushkov compilations keyed by the canonical
// expression string, so structurally equal expressions share one entry
// regardless of how their ASTs were obtained and a long-lived engine (a
// service worker) re-evaluating an expression skips automaton and
// transition-table construction. The memo is per engine by design: each
// worker clone pays its own cold build, in exchange for lock-free
// access on the evaluation hot path. Entries are pointers and the key
// is rendered through keyW, keeping the steady-state lookup
// allocation-free.
type compileMemo struct {
	ids      glushkov.SymbolIDs
	numPreds uint32
	// lp is the L_p sequence get precomputes B[v] over.
	lp      *wavelet.Matrix
	entries map[string]*compiledAutomaton
	keyW    pathexpr.KeyWriter
}

// lookup returns expr's entry, building the automaton on first sight.
// It fails, memoising nothing, for an automaton wider than the engine's
// one word: a tree built by hand past pathexpr.Parse's bound.
func (m *compileMemo) lookup(expr pathexpr.Node) (*compiledAutomaton, error) {
	kb := m.keyW.Key(expr)
	if c, ok := m.entries[string(kb)]; ok { // no-copy lookup
		return c, nil
	}
	a := glushkov.Build(expr, m.ids)
	eng, err := glushkov.NewEngineFor(a, m.numPreds)
	if err != nil {
		return nil, err
	}
	c := &compiledAutomaton{a: a, eng: eng}
	if m.entries == nil || len(m.entries) >= maxCompiled {
		m.entries = make(map[string]*compiledAutomaton, 16)
	}
	m.entries[string(kb)] = c
	return c, nil
}

// get is lookup for an evaluation: on the expression's first
// evaluation it builds the compiled stepper and the B[v] array.
// Compilation stays out of lookup because the engine also reads
// automata it never runs: Eval's delegation check looks up the query's
// expression, while a (s, E, y) query runs only its inverse.
func (m *compileMemo) get(expr pathexpr.Node) (*compiledAutomaton, error) {
	c, err := m.lookup(expr)
	if err == nil && c.st == nil {
		st := glushkov.Compile(c.eng, m.numPreds)
		c.st = &st
		c.bArr = buildBArr(m.lp, c.eng)
	}
	return c, err
}

// buildBArr precomputes the B[v] masks over the wavelet nodes of lp for
// a compiled expression: every node holds the union of its leaves'
// B[c] (§4.1), built once per expression and shared by every later
// evaluation.
func buildBArr(lp *wavelet.Matrix, eng *glushkov.Engine) []uint64 {
	arr := make([]uint64, lp.NumNodes())
	for c, mask := range eng.B {
		for id := lp.LeafID(c); id >= 1; id = id.Parent() {
			arr[id] |= mask
		}
	}
	return arr
}
