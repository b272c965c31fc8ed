package core

import (
	"context"
	"errors"
	"time"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// Edge is a completed dictionary-encoded triple (both directions of a
// data edge are materialised, exactly as in the static ring).
type Edge struct {
	S, P, O uint32
}

// Delta is the seam through which the kernel sees a live-
// update overlay: sorted adds (disjoint from the ring) and tombstones
// (a subset of the ring's triples). *overlay.Overlay satisfies it; the
// returned slices are read-only views of an immutable version. The
// kernel itself decides, per evaluation, whether a query needs the
// delta at all (TouchesPred; see Engine.Eval).
type Delta interface {
	// TouchesPred reports whether any add or tombstone carries
	// completed predicate p.
	TouchesPred(p uint32) bool
	// Adds returns every live add sorted by (O, P, S); AddsInto the run
	// of them entering object o.
	Adds() []Edge
	AddsInto(o uint32) []Edge
	// AddsByPred returns the adds carrying completed predicate p sorted
	// by (S, O); AddsByPredSubject the run of them leaving subject s.
	AddsByPred(p uint32) []Edge
	AddsByPredSubject(p, s uint32) []Edge
	// Dels returns every tombstone sorted by (O, P, S), a slice a
	// version keeps until it is replaced; Deleted tests one static edge,
	// DeletedPS counts the tombstones under (p, s) and DelsForPred those
	// carrying p (zero lets a step skip its per-edge probes).
	Dels() []Edge
	Deleted(e Edge) bool
	DeletedPS(p, s uint32) int
	DelsForPred(p uint32) int
}

// noDelta is the empty overlay a static ring is traversed with.
type noDelta struct{}

func (noDelta) TouchesPred(uint32) bool              { return false }
func (noDelta) Adds() []Edge                         { return nil }
func (noDelta) AddsInto(uint32) []Edge               { return nil }
func (noDelta) AddsByPred(uint32) []Edge             { return nil }
func (noDelta) AddsByPredSubject(_, _ uint32) []Edge { return nil }
func (noDelta) Dels() []Edge                         { return nil }
func (noDelta) Deleted(Edge) bool                    { return false }
func (noDelta) DeletedPS(_, _ uint32) int            { return 0 }
func (noDelta) DelsForPred(uint32) int               { return 0 }

// Engine is the traversal kernel: it evaluates 2RPQs over the union
// graph ring ∪ adds − dels, where the Delta is a live-update overlay or
// nothing. The paper's setting — one static ring — is the no-delta case
// (NewEngine); a snapshot with live updates attaches its overlay with
// SetDelta. One Engine serves both: an evaluation the attached delta
// cannot affect runs exactly as it would with no delta (see Eval).
//
// The traversal is the paper's backward product-graph search (§4, see
// the package comment), generalised in two ways that vanish with no
// delta:
//
//   - each step unions the in-edges of the current object in the ring
//     with the overlay's sorted adds, and drops tombstoned static edges;
//   - novelty is decided against one visited-state mask per node. A node
//     of the ring's id space keeps it at its L_s leaf — the D[s] of
//     §4.2 — whose internal D[v] marks only under-approximate it when
//     adds reach the node too; they prune subtrees and the leaf decides,
//     so the visited product subgraph is exactly G'_E of the union
//     graph. Only overlay-only nodes (ids beyond the ring's node space)
//     need an array of their own.
//
// An Engine owns reusable working arrays and runs an evaluation on its
// caller's goroutine, so it must not be used concurrently; build one
// per worker.
type Engine struct {
	ids  glushkov.SymbolIDs
	r    *ring.Ring
	memo compileMemo

	// dNode holds the D[v] marks of §4.2 over L_s's wavelet nodes, and
	// lsPads L_s's padding nodes, pre-marked by markPads.
	dNode  *lazy.MaskArray
	lsPads []wavelet.NodeID
	// bArr is the active expression's immutable B[v] array over L_p
	// (§4.1), owned by its compile memo entry and installed by prepare.
	bArr []uint64
	// tomb carries the tombstones' leaf ranks under their subjects
	// across overlay versions: the batched part 2 drops fully-tombstoned
	// leaf items (see tombRanks).
	tomb tombRanks
	// deferred holds the L_s tails, with their state masks, that part2
	// put off until the frontier runs dry (see resumeDeferred).
	deferred []wavelet.RangeMask

	// delta is the attached overlay version (noDelta{} for none) and
	// snapNodes ≥ r.NumNodes its snapshot's node space, covering overlay
	// adds; both are set by SetDelta.
	delta     Delta
	snapNodes int
	// ov and numNodes are what the current evaluation traverses: delta
	// and snapNodes, or no delta and r.NumNodes when the delta cannot
	// affect the query (see Eval).
	ov       Delta
	numNodes int

	pairs pairSet // fast-path result dedup (see multiring_fast.go)
	// visited holds the visited-state masks of the ids in
	// [r.NumNodes, numNodes); empty without a delta.
	visited *lazy.MaskArray
	queue   []queueItem
	level   []queueItem
	lpItems []wavelet.RangeMask
	lsItems []wavelet.RangeMask
	lsFirst []wavelet.RangeMask // a limited level's first part-2 descent
	starts  []uint32            // v→v phase-1 candidates
	// installment is how many positions of a non-reporting part-2 range
	// a limited batched traversal descends at once (see part2); 0 defers
	// nothing.
	installment int

	// per-evaluation state
	stats     Stats
	trace     *obs.Trace
	deadline  time.Time
	steps     int
	limit     int // Options.Limit
	emit      EmitFunc
	base      uint64
	batch     bool
	noCompile bool

	// st is the active expression's compiled stepper, installed by
	// prepare alongside bArr.
	st *glushkov.Stepper
}

var _ Evaluator = (*Engine)(nil)

// queueItem is one frontier entry: a node and the automaton states it
// was newly reached with.
type queueItem struct {
	node uint32
	d    uint64
}

// NewEngine builds the kernel over the ring r — the paper's setting.
// The ids function resolves predicate occurrences of query expressions
// to completed predicate ids (e.g. triples.Graph.PredID). It starts
// with no overlay and the ring's own node space; SetDelta changes both.
func NewEngine(r *ring.Ring, ids glushkov.SymbolIDs) *Engine {
	e := &Engine{ids: ids, r: r,
		memo:    compileMemo{ids: ids, numPreds: r.NumPreds, lp: r.Lp},
		dNode:   lazy.NewMaskArray(r.Ls.NumNodes()),
		lsPads:  r.Ls.PadNodes(),
		visited: lazy.NewMaskArray(0)}
	e.SetDelta(nil, r.NumNodes)
	return e
}

// SetDelta points the kernel at one overlay version (nil for none) and
// the node-id space of its snapshot (the dictionary length when the
// snapshot was taken, covering every overlay add). It is cheap enough to
// call before every evaluation.
func (e *Engine) SetDelta(ov Delta, numNodes int) {
	if ov == nil {
		ov = noDelta{}
	}
	e.delta, e.snapNodes = ov, numNodes
	if e.visited.Len() < numNodes-e.r.NumNodes {
		e.visited = lazy.NewMaskArray(numNodes - e.r.NumNodes)
	}
}

// WorkingSizeBytes reports the per-query working-array footprint (the
// paper's "array D uses 3.09 extra bytes per triple" accounting): the
// D[v] array, plus the visited masks of overlay-only nodes when a delta
// brought any. The B[v] arrays are per expression and live in the
// compile memo, not here.
func (e *Engine) WorkingSizeBytes() int {
	n := e.dNode.SizeBytes()
	if e.visited.Len() > 0 {
		n += e.visited.SizeBytes()
	}
	return n
}

// deltaIrrelevant reports whether the attached delta cannot change
// expr's answer, so that the evaluation may run with no delta over the
// ring's node space, exactly as on a clean snapshot: the automaton has
// no symbol classes (they read every predicate), no add or tombstone
// carries one of its predicates, and nullability cannot relate
// overlay-only nodes (ids beyond the ring) to themselves. An empty
// delta over the ring's own node space is irrelevant to every query,
// which spares a clean snapshot the automaton lookup.
func (e *Engine) deltaIrrelevant(expr pathexpr.Node) bool {
	if e.snapNodes == e.r.NumNodes && len(e.delta.Adds()) == 0 && len(e.delta.Dels()) == 0 {
		return true
	}
	a := e.memo.lookup(expr).a
	if a.HasClasses() || a.Nullable && e.snapNodes > e.r.NumNodes {
		return false
	}
	for _, c := range a.Syms {
		if c != glushkov.NoSymbol && e.delta.TouchesPred(c) {
			return false
		}
	}
	return true
}

func (e *Engine) compile(expr pathexpr.Node) *compiledAutomaton {
	return e.memo.get(expr, e.noCompile)
}

// Eval evaluates q, calling emit for every result pair. Pairs are
// distinct (set semantics) and their order is unspecified. It returns
// the work statistics and ErrTimeout if the timeout fired (results
// emitted so far are valid but incomplete). ctx is consulted once at
// entry (FoldContext): it may carry an obs.Trace and tighten the
// deadline, but is not polled during the traversal.
//
// With a delta attached, Eval first decides whether the query needs it
// (deltaIrrelevant). If not, this one evaluation runs with no delta
// over the ring's node space — the same traversal, and the same Stats,
// as an engine that never had a delta — and the attached delta, with
// its carried tombstone ranks, stays in place for the next one.
func (e *Engine) Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error) {
	opts = FoldContext(ctx, opts)
	e.ov, e.numNodes = e.delta, e.snapNodes
	if e.deltaIrrelevant(q.Expr) {
		e.ov, e.numNodes = noDelta{}, e.r.NumNodes
	}
	e.stats = Stats{}
	e.steps = 0
	e.base = 0
	e.batch = !opts.DisableBatching
	e.noCompile = opts.DisableCompiled
	e.trace = opts.Trace
	if opts.Timeout > 0 {
		e.deadline = time.Now().Add(opts.Timeout)
	} else {
		e.deadline = time.Time{}
	}
	e.limit = opts.Limit
	e.emit = func(s, o uint32) bool {
		e.stats.Results++
		if !emit(s, o) {
			return false
		}
		return e.limit == 0 || e.stats.Results < e.limit
	}

	sp := e.trace.Begin(obs.SpanTraverse)
	err := e.dispatch(q, opts)
	e.trace.EndVals(sp, int64(e.stats.ProductNodes), int64(e.stats.ProductEdges),
		int64(e.stats.WaveletVisits), int64(e.stats.Results))
	if errors.Is(err, errLimit) {
		err = nil
	}
	return e.stats, err
}

// dispatch routes the query to the §5 fast paths or the generic §4
// traversal, depending on its shape.
func (e *Engine) dispatch(q Query, opts Options) error {
	if !opts.DisableFastPaths && q.Subject == Variable && q.Object == Variable {
		if done, err := e.tryFastPath(q.Expr); done {
			return err
		}
	}
	switch {
	case q.Object != Variable && q.Subject == Variable:
		// (x, E, o): traverse E backwards from o.
		return e.evalToConst(q.Expr, uint32(q.Object), false)
	case q.Subject != Variable && q.Object == Variable:
		// (s, E, y) ≡ (y, Ê, s): traverse Ê backwards from s (§4.4).
		return e.evalToConst(pathexpr.InverseOf(q.Expr), uint32(q.Subject), true)
	case q.Subject != Variable && q.Object != Variable:
		return e.evalBothConst(q.Expr, uint32(q.Subject), uint32(q.Object))
	default:
		return e.evalBothVar(q.Expr)
	}
}

// release resets every per-query working array in O(1).
func (e *Engine) release() {
	e.visited.Reset()
	e.dNode.Reset()
	e.bArr = nil
	e.deferred = e.deferred[:0]
	e.installment = 0
	e.queue = e.queue[:0]
	e.level = e.level[:0]
	e.base = 0
	e.st = nil
}

// prepare installs c's compiled stepper and B[v] array (built by the
// memo on the expression's first evaluation) for one evaluation.
func (e *Engine) prepare(c *compiledAutomaton) {
	if e.wide(c) {
		return // the multiword fallback keeps its own state
	}
	e.st = c.st
	e.bArr = c.bArr
	e.markPads()
}

// markPads pre-marks the padding subtrees of L_s as visited with every
// state, so that the bottom-up intersection marks are not blocked by
// leaves that cannot occur.
func (e *Engine) markPads() {
	for _, id := range e.lsPads {
		e.dNode.Set(int(id), ^uint64(0))
	}
}

// start clears the visited state (keeping the B masks, so the per-start
// traversals of a v→v phase 2 share one prepare) and seeds a traversal
// from node o holding the final states.
func (e *Engine) start(eng *glushkov.Engine, o uint32) {
	e.visited.Reset()
	e.dNode.Reset()
	e.markPads()
	e.markNode(o, eng.F)
	e.queue = append(e.queue[:0], queueItem{o, eng.F})
}

// seen returns the states node s has been visited with (§4.2's D[s]):
// its L_s leaf mark or, for an overlay-only node, its slot of visited.
func (e *Engine) seen(s uint32) uint64 {
	if int(s) < e.r.NumNodes {
		return e.dNode.Get(int(e.r.Ls.LeafID(s)))
	}
	return e.visited.Get(int(s) - e.r.NumNodes)
}

// markNode records that node s was visited with states d at its L_s
// leaf, or in visited for an overlay-only node.
func (e *Engine) markNode(s uint32, d uint64) {
	if int(s) >= e.r.NumNodes {
		e.visited.Or(int(s)-e.r.NumNodes, d)
		return
	}
	markSubjectOn(e.dNode, e.r.Ls.LeafID(s), d)
}

// markSubjectOn records on d that the subject at leaf has been visited
// with the given states and restores the invariant that every internal
// mark is the intersection of its children (conservatively using zero
// for untouched real leaves and all-ones for padding, via markPads).
func markSubjectOn(d *lazy.MaskArray, leaf wavelet.NodeID, states uint64) {
	d.Or(int(leaf), states)
	for id := leaf.Parent(); id >= 1; id = id.Parent() {
		v := d.Get(int(2*id)) & d.Get(int(2*id+1))
		if v == d.Get(int(id)) {
			break
		}
		d.Set(int(id), v)
	}
}

// arrive processes reaching node s with automaton states d2, of which
// newStates were not yet visited there (the caller read the node's
// mark: a part-2 leaf has it at hand): mark, report when the initial
// state is reached, and enqueue remaining work (§4.2–4.3).
func (e *Engine) arrive(eng *glushkov.Engine, s uint32, d2, newStates uint64, emit EmitFunc) error {
	if newStates == 0 {
		return nil
	}
	e.stats.ProductNodes++
	e.markNode(s, d2)
	if newStates&eng.Init != 0 {
		if !emit(s, 0) {
			return errLimit
		}
		newStates &^= eng.Init // the initial state has no incoming work
	}
	if newStates != 0 && e.hasInEdges(s) {
		e.queue = append(e.queue, queueItem{s, newStates})
	}
	return nil
}

// hasInEdges reports whether node s has any union in-edge: enqueueing
// sink nodes would only grow the frontier sorts.
func (e *Engine) hasInEdges(s uint32) bool {
	if int(s) < e.r.NumNodes && e.r.Co[s+1] > e.r.Co[s] {
		return true
	}
	return len(e.ov.AddsInto(s)) > 0
}

// EachInEdge streams the union in-edges of object o as (p, s) pairs:
// r's object range (tombstones dropped) followed by the overlay's adds.
// Return false to stop. Per-edge wavelet access — the generic
// enumeration behind the pattern executor's union-mode edge scans.
func EachInEdge(r *ring.Ring, ov Delta, o uint32, fn func(p, s uint32) bool) bool {
	if int(o) < r.NumNodes {
		b, end := r.ObjectRange(o)
		for i := b; i < end; i++ {
			p := r.Lp.Access(i)
			s := r.Ls.Access(r.Cp[p] + r.Lp.Rank(p, i))
			if !ov.Deleted(Edge{S: s, P: p, O: o}) && !fn(p, s) {
				return false
			}
		}
	}
	for _, ed := range ov.AddsInto(o) {
		if !fn(ed.P, ed.S) {
			return false
		}
	}
	return true
}

// bfs drains the worklist: the frontier-batched level-synchronous
// expansion by default (see multiring_batch.go), the item-at-a-time
// FIFO under Options.DisableBatching (the differential ablation).
func (e *Engine) bfs(eng *glushkov.Engine, emit EmitFunc) error {
	if e.batch {
		return e.bfsBatched(eng, emit)
	}
	for head := 0; head < len(e.queue); head++ {
		it := e.queue[head]
		if err := e.expand(eng, it.node, it.d, emit); err != nil {
			return err
		}
	}
	return nil
}

// expand performs one backward step from object o with active states d.
func (e *Engine) expand(eng *glushkov.Engine, o uint32, d uint64, emit EmitFunc) error {
	if err := e.checkDeadline(); err != nil {
		return err
	}
	if int(o) < e.r.NumNodes {
		if b, end := e.r.ObjectRange(o); b < end {
			if err := e.ringStep(eng, int64(o), b, end, d, emit); err != nil {
				return err
			}
		}
	}
	return e.addsStep(eng, e.ov.AddsInto(o), d, emit)
}

// addsStep NFA-steps states d over overlay adds whose targets hold
// them: the adds entering one object, or — in the full-range phase,
// where every target conceptually holds the final states — all of them.
func (e *Engine) addsStep(eng *glushkov.Engine, adds []Edge, d uint64, emit EmitFunc) error {
	for _, ed := range adds {
		// Per-edge deadline probe: one object may have many overlay adds.
		if err := e.checkDeadline(); err != nil {
			return err
		}
		bp := e.st.PredMask(ed.P)
		if d&bp == 0 {
			continue
		}
		e.stats.ProductEdges++
		d2 := e.st.StepBack(d & bp)
		if d2 == 0 {
			continue
		}
		if err := e.arrive(eng, ed.S, d2, d2&^(e.seen(ed.S)|e.base), emit); err != nil {
			return err
		}
	}
	return nil
}

// ringStep is part 1 of §4 over the ring: find the distinct
// predicates of L_p[b, end) leading to an active state, pruned by the
// aggregated B[v] masks, then map each through backward search to its
// L_s subject range (part 2).
func (e *Engine) ringStep(eng *glushkov.Engine, o int64, b, end int, d uint64, emit EmitFunc) error {
	negFwd, negInv := eng.NegClassBits()
	half := e.r.NumPreds / 2
	var failure error
	e.r.Lp.Traverse(b, end, func(node wavelet.NodeID, leaf bool, p uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		e.stats.WaveletVisits++
		if !leaf {
			// Part 1 pruning: descend only towards predicates that lead
			// to an active state (Fact 1 via the aggregated B[v]);
			// negated property sets may be reachable through any node
			// covering symbols of their half of the completed alphabet.
			if d&e.bArr[node] != 0 {
				return true
			}
			if negFwd|negInv == 0 {
				return false
			}
			lo, hi := e.r.Lp.SymRange(node)
			var cb uint64
			if lo < half {
				cb |= negFwd
			}
			if hi > half {
				cb |= negInv
			}
			return d&cb != 0
		}
		// Per-expansion deadline probe (a single step can cover many
		// predicate leaves).
		if err := e.checkDeadline(); err != nil {
			failure = err
			return false
		}
		bp := e.st.PredMask(p)
		if d&bp == 0 {
			return true
		}
		e.stats.ProductEdges++
		// The NFA transition is the same for every subject below
		// (Fact 1); the rank range [rb, re) of p plus C_p is the L_s
		// range of sources (backward search, Eqs. 4–5).
		d2 := e.st.StepBack(d & bp)
		if d2 == 0 {
			return true
		}
		failure = e.part2(eng, o, p, e.r.Cp[p]+rb, e.r.Cp[p]+re, d2, emit)
		return failure == nil
	})
	return failure
}

// part2 enumerates the distinct subjects of L_s[b, end) still carrying
// unvisited states, skipping tombstoned edges. o ≥ 0 names the exact
// object of the step; o < 0 marks the full-range phase, where a
// subject survives iff its multiplicity under p exceeds its (p, s)
// tombstone count.
//
// A limited batched traversal descends a range of an exact object that
// cannot report (d2 lacks the initial state) in installments: it keeps
// the first e.installment positions and defers the rest, with d2, to
// e.deferred, so that a hub's in-neighbours do not all enter the
// frontier before any of them is asked for a result (resumeDeferred).
func (e *Engine) part2(eng *glushkov.Engine, o int64, p uint32, b, end int, d2 uint64, emit EmitFunc) error {
	if o >= 0 && e.installment > 0 && d2&eng.Init == 0 && end-b > e.installment {
		e.deferred = append(e.deferred, wavelet.RangeMask{B: b + e.installment, E: end, Mask: d2})
		end = b + e.installment
	}
	checkDels := e.ov.DelsForPred(p) > 0
	var failure error
	e.r.Ls.Traverse(b, end, func(node wavelet.NodeID, leaf bool, s uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		e.stats.WaveletVisits++
		e.stats.SubjectVisits++
		newStates := d2 &^ (e.dNode.Get(int(node)) | e.base)
		if !leaf {
			// Prune subtrees all of whose subjects were already visited
			// with every state in d2.
			return newStates != 0
		}
		// Per-leaf deadline probe (dense objects cover many subjects).
		if err := e.checkDeadline(); err != nil {
			failure = err
			return false
		}
		if checkDels {
			if o >= 0 {
				if e.ov.Deleted(Edge{S: s, P: p, O: uint32(o)}) {
					return true
				}
			} else if re-rb <= e.ov.DeletedPS(p, s) {
				return true
			}
		}
		failure = e.arrive(eng, s, d2, newStates, emit)
		return failure == nil
	})
	return failure
}

// wide reports whether c runs on the multiword fallback: beyond 64
// states, or under the Options.DisableCompiled ablation.
func (e *Engine) wide(c *compiledAutomaton) bool { return c.eng == nil || e.noCompile }

// runFrom traverses backwards from node o holding the final states,
// reporting every node that reaches the initial state. The caller has
// prepared c (once for any number of starts) and releases afterwards.
func (e *Engine) runFrom(c *compiledAutomaton, o uint32, emit EmitFunc) error {
	if e.wide(c) {
		return e.wideFrom(c, o, emit)
	}
	e.start(c.eng, o)
	return e.bfs(c.eng, emit)
}

// evalToConst evaluates (x, E, o) for fixed o, emitting (s, o) pairs —
// or (o, s) when swap is set (the (s, E, y) rewriting of §4.4).
func (e *Engine) evalToConst(expr pathexpr.Node, o uint32, swap bool) error {
	pair := func(r, _ uint32) bool {
		if swap {
			return e.emit(o, r)
		}
		return e.emit(r, o)
	}
	if int(o) >= e.numNodes {
		return nil
	}
	c := e.compile(expr)
	if c.a.Nullable && !pair(o, o) {
		return errLimit
	}
	defer e.release()
	e.prepare(c)
	return e.runFrom(c, o, pair)
}

// evalBothConst evaluates (s, E, o) with both endpoints fixed, stopping
// at the first match (§4.4; this case is excluded from Theorem 4.1).
func (e *Engine) evalBothConst(expr pathexpr.Node, s, o uint32) error {
	if int(o) >= e.numNodes || int(s) >= e.numNodes {
		return nil
	}
	c := e.compile(expr)
	if c.a.Nullable && s == o {
		e.emit(s, o)
		return nil
	}
	found := false
	probe := func(got, _ uint32) bool {
		if got == s {
			found = true
			e.emit(s, o)
			return false // stop the traversal
		}
		return true
	}
	defer e.release()
	e.prepare(c)
	err := e.runFrom(c, o, probe)
	if found && errors.Is(err, errLimit) {
		err = nil
	}
	return err
}

// evalBothVar evaluates (x, E, y): nullable self-pairs first, then a
// full-range phase collecting candidate endpoints, then one
// constrained traversal per candidate (§4.4's two-phase strategy).
// The orientation is chosen by boundary-predicate cardinality: start
// from the end whose first backward scan selects fewer triples (§5),
// counting overlay adds alongside the ring.
func (e *Engine) evalBothVar(expr pathexpr.Node) error {
	a := e.memo.lookup(expr).a
	nullable := a.Nullable
	if nullable {
		// The O(|V|) self-pair prefix honours the deadline before any
		// traversal work starts.
		for v := 0; v < e.numNodes; v++ {
			if err := e.checkDeadline(); err != nil {
				return err
			}
			if !e.emit(uint32(v), uint32(v)) {
				return errLimit
			}
		}
	}
	fromObjects := e.startFromObjects(a)
	expr1, expr2 := expr, pathexpr.InverseOf(expr)
	if fromObjects {
		expr1, expr2 = expr2, expr1
	}

	// Phase 1: every endpoint conceptually starts with the final states
	// active; collect the candidates that reach the initial state. Each
	// candidate of a non-nullable expression yields a pair of its own in
	// phase 2, so phase 1 ends (errLimit) once it holds the pairs still
	// owed; a nullable one's self-pair is already out and may be its only.
	owed := e.limit - e.stats.Results
	e.starts = e.starts[:0]
	collect := func(s, _ uint32) bool {
		e.starts = append(e.starts, s)
		return e.limit == 0 || nullable || len(e.starts) < owed
	}
	if err := e.fullRangeSources(expr1, collect); err != nil && !errors.Is(err, errLimit) {
		return err
	}

	// Phase 2: one constrained traversal per candidate, in the other
	// orientation. The automaton and the B[v] masks depend only on the
	// expression, so they are prepared once; only the visited marks
	// reset per start.
	pairFor := func(s uint32) EmitFunc {
		return func(r, _ uint32) bool {
			if nullable && r == s {
				return true // (s, s) already emitted
			}
			if fromObjects {
				// s is an object candidate: the traversal reports sources.
				return e.emit(r, s)
			}
			// s is a source candidate: the traversal of Ê reports objects.
			return e.emit(s, r)
		}
	}
	c2 := e.compile(expr2)
	defer e.release()
	e.prepare(c2)
	for _, s := range e.starts {
		if err := e.runFrom(c2, s, pairFor(s)); err != nil {
			return err
		}
	}
	return nil
}

// fullRangeSources finds all nodes that can start a path matching expr
// towards some node: one step over the ring's complete L_p range and
// every overlay add, then the ordinary traversal (§4.4).
func (e *Engine) fullRangeSources(expr pathexpr.Node, emit EmitFunc) error {
	c := e.compile(expr)
	if e.wide(c) {
		return e.wideFullRange(c, emit)
	}
	eng := c.eng
	defer e.release()
	e.prepare(c)
	// States in F (minus the initial state, which must stay reportable)
	// count as already visited everywhere.
	e.base = eng.F &^ eng.Init
	if err := e.ringStep(eng, -1, 0, e.r.N, eng.F, emit); err != nil {
		return err
	}
	if err := e.addsStep(eng, e.ov.Adds(), eng.F, emit); err != nil {
		return err
	}
	return e.bfs(eng, emit)
}

// startFromObjects decides the phase-1 orientation of a v→v query
// (§5: start from the end whose boundary predicates select fewer
// triples), counting both the static ring and the overlay adds.
func (e *Engine) startFromObjects(a *glushkov.Automaton) bool {
	count := func(positions []int32) int {
		total := 0
		for _, j := range positions {
			c := a.Syms[j-1]
			if c == glushkov.NoSymbol {
				continue
			}
			total += e.r.Cp[c+1] - e.r.Cp[c] + len(e.ov.AddsByPred(c))
		}
		return total
	}
	return count(a.Follow[0]) < count(a.Last)
}

func (e *Engine) checkDeadline() error {
	e.steps++
	if e.deadline.IsZero() || e.steps%64 != 0 {
		return nil
	}
	if time.Now().After(e.deadline) {
		return ErrTimeout
	}
	return nil
}
