package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// compiledAutomaton is one memoised Glushkov compilation; eng is nil
// when the expression exceeds the 64-state bit-parallel engine and the
// multiword fallback must be used. st and bArrs are the compilation
// tier: they stay nil until the expression's use count crosses
// compileThreshold (or an eager evaluation forces them), after which
// every later evaluation runs the specialized stepper against the
// precomputed B[v] arrays with zero per-eval setup.
type compiledAutomaton struct {
	a    *glushkov.Automaton
	eng  *glushkov.Engine
	uses int
	st   glushkov.Stepper
	// bArrs holds one immutable B[v] array per L_p tree the memo serves
	// (one per sub-ring).
	bArrs [][]uint64
	// wide is the multiword simulation, built on the first evaluation
	// that needs it.
	wide *glushkov.Wide
}

// maxCompiled bounds the per-engine compilation memo; on overflow the
// whole memo is dropped (rebuilding a handful of automata is cheaper
// than tracking recency).
const maxCompiled = 128

// compileThreshold is the use count past which an expression is
// compiled into a specialized stepper. The service's canonicalizing
// expr cache aligns the memo keys, so per-worker use counts mirror the
// service-level hit counters.
const compileThreshold = 2

// compileMemo memoises Glushkov compilations keyed by the canonical
// expression string, so structurally equal expressions share one entry
// regardless of how their ASTs were obtained and a long-lived engine (a
// service worker) re-evaluating an expression skips automaton and
// transition-table construction. The memo is per engine by design: each
// worker clone pays its own cold build, in exchange for lock-free
// access on the evaluation hot path. Entries are pointers and the key
// is rendered through keyW, keeping the steady-state lookup (and the
// use-count bump) allocation-free.
type compileMemo struct {
	ids      glushkov.SymbolIDs
	numPreds uint32
	// lps are the L_p trees the compilation tier precomputes B[v] for.
	lps     []wavelet.Seq
	entries map[string]*compiledAutomaton
	keyW    pathexpr.KeyWriter
}

// lookup returns expr's entry, building the automaton on first sight.
func (m *compileMemo) lookup(expr pathexpr.Node) *compiledAutomaton {
	kb := m.keyW.Key(expr)
	c, ok := m.entries[string(kb)] // no-copy lookup
	if !ok {
		a := glushkov.Build(expr, m.ids)
		eng, err := glushkov.NewEngineFor(a, m.numPreds)
		if err != nil {
			eng = nil // beyond 64 states: the multiword path
		}
		c = &compiledAutomaton{a: a, eng: eng}
		if m.entries == nil || len(m.entries) >= maxCompiled {
			m.entries = make(map[string]*compiledAutomaton, 16)
		}
		m.entries[string(kb)] = c
	}
	return c
}

// get is lookup for an evaluation: it counts the use and, once the
// expression is hot (or eager is set), builds the stepper tier.
func (m *compileMemo) get(expr pathexpr.Node, eager, noCompile bool) *compiledAutomaton {
	c := m.lookup(expr)
	c.uses++
	if c.eng != nil && c.st == nil && !noCompile && (eager || c.uses > compileThreshold) {
		c.st = glushkov.Compile(c.eng, m.numPreds)
		c.bArrs = make([][]uint64, len(m.lps))
		for i, lp := range m.lps {
			c.bArrs[i] = buildBArr(lp, c.eng)
		}
	}
	return c
}

// buildBArr precomputes the B[v] masks over the wavelet nodes of lp for
// a compiled expression: the immutable equivalent of prepare's lazy
// bNode seeding, built once per (expression, ring) and shared by every
// later evaluation.
func buildBArr(lp wavelet.Seq, eng *glushkov.Engine) []uint64 {
	arr := make([]uint64, lp.NumNodes())
	for c, mask := range eng.B {
		for id := lp.LeafID(c); id >= 1; id = id.Parent() {
			arr[id] |= mask
		}
	}
	return arr
}
