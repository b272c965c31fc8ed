package overlay

import (
	"context"

	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// Engine evaluates 2RPQs over the union graph ring ∪ adds − dels,
// implementing core.Evaluator so the snapshot layer can swap it in
// wherever a static engine is expected.
//
// It only decides who answers. When the overlay is empty, or the
// query's predicates have no overlay adds or tombstones (and
// nullability cannot surface overlay-only nodes), the whole evaluation
// is delegated to the static engine: a read-mostly workload keeps
// static-path performance even mid-update. Everything else runs on a
// core.Engine over the static sub-rings (one for the single-ring
// layout, K for a sharded one) with the overlay as its delta — the
// kernel the static engine is, with a delta set.
//
// Like core.Engine it owns working arrays and must not be used
// concurrently; build one per worker clone.
type Engine struct {
	static core.Evaluator
	kernel *core.Engine

	ov          *Overlay
	numNodes    int // snapshot dictionary size ≥ staticNodes
	staticNodes int // id space of the static rings (identical across shards)
}

var _ core.Evaluator = (*Engine)(nil)

// NewEngine builds a union evaluator. static is the snapshot's ordinary
// evaluator (single-ring or sharded engine) used for whole-query
// delegation; rings are its sub-rings over global id spaces; numPreds
// is the completed predicate count. Call SetSnapshot before Eval.
func NewEngine(static core.Evaluator, rings []*ring.Ring, ids glushkov.SymbolIDs, numPreds uint32) *Engine {
	e := &Engine{static: static, kernel: core.NewMultiRing(rings, ids, numPreds)}
	if len(rings) > 0 {
		e.staticNodes = rings[0].NumNodes
	}
	return e
}

// SetSnapshot points the engine at one overlay version and the node-id
// space of its snapshot (the dictionary length when the snapshot was
// taken, covering every overlay add).
func (e *Engine) SetSnapshot(ov *Overlay, numNodes int) {
	e.ov, e.numNodes = ov, numNodes
	if ov != nil {
		e.kernel.SetDelta(ov, numNodes)
	}
}

// canDelegate reports whether the static engine alone answers expr
// exactly: no automaton predicate is touched by an overlay add or
// tombstone, symbol classes are absent (they read every predicate),
// and nullability cannot relate overlay-only nodes (ids beyond the
// static rings) to themselves.
func (e *Engine) canDelegate(expr pathexpr.Node) bool {
	a := e.kernel.Automaton(expr)
	if a.HasClasses() || a.Nullable && e.numNodes > e.staticNodes {
		return false
	}
	for _, c := range a.Syms {
		if c != glushkov.NoSymbol && e.ov.TouchesPred(c) {
			return false
		}
	}
	return true
}

// Eval implements core.Evaluator with core.Engine's contract: distinct
// pairs, Options.Limit/Timeout honoured, ErrTimeout with valid partial
// results.
func (e *Engine) Eval(ctx context.Context, q core.Query, opts core.Options, emit core.EmitFunc) (core.Stats, error) {
	if e.ov == nil || e.ov.Empty() || e.canDelegate(q.Expr) {
		return e.static.Eval(ctx, q, opts, emit)
	}
	return e.kernel.Eval(ctx, q, opts, emit)
}
