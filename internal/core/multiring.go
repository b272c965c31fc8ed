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
// update overlay: sorted adds (disjoint from the rings) and tombstones
// (a subset of the rings' triples). *overlay.Overlay satisfies it; the
// returned slices are read-only views of an immutable version.
type Delta interface {
	// Version identifies the overlay version (tombstone caches key on it).
	Version() uint64
	// Adds returns every live add sorted by (O, P, S); AddsInto the run
	// of them entering object o.
	Adds() []Edge
	AddsInto(o uint32) []Edge
	// AddsByPred returns the adds carrying completed predicate p sorted
	// by (S, O); AddsByPredSubject the run of them leaving subject s.
	AddsByPred(p uint32) []Edge
	AddsByPredSubject(p, s uint32) []Edge
	// Dels returns every tombstone; Deleted tests one static edge,
	// DeletedPS counts the tombstones under (p, s) and DelsForPred those
	// carrying p (zero lets a step skip its per-edge probes).
	Dels() []Edge
	Deleted(e Edge) bool
	DeletedPS(p, s uint32) int
	DelsForPred(p uint32) int
}

// noDelta is the empty overlay static rings are traversed with.
type noDelta struct{}

func (noDelta) Version() uint64                      { return 0 }
func (noDelta) Adds() []Edge                         { return nil }
func (noDelta) AddsInto(uint32) []Edge               { return nil }
func (noDelta) AddsByPred(uint32) []Edge             { return nil }
func (noDelta) AddsByPredSubject(_, _ uint32) []Edge { return nil }
func (noDelta) Dels() []Edge                         { return nil }
func (noDelta) Deleted(Edge) bool                    { return false }
func (noDelta) DeletedPS(_, _ uint32) int            { return 0 }
func (noDelta) DelsForPred(uint32) int               { return 0 }

// Engine is the traversal kernel: it evaluates 2RPQs over the union
// graph rings ∪ adds − dels, where rings are K sub-rings over global id
// spaces (one for the single-ring layout, the shards of a ring.ShardSet
// otherwise) and the Delta is a live-update overlay or nothing. The
// paper's setting — one static ring — is K = 1 with no delta
// (NewEngine); ShardedEngine runs cross-shard expressions over K rings
// with no delta, and the overlay's union engine runs everything the
// static engine cannot answer alone.
//
// The traversal is the paper's backward product-graph search (§4, see
// the package comment), generalised in two ways that vanish at K = 1
// with no delta:
//
//   - each step unions the in-edges of the current object across every
//     sub-ring and the overlay's sorted adds, and drops tombstoned
//     static edges;
//   - novelty is decided against one visited-state mask per node. A node
//     of the rings' id space keeps it at its L_s leaf — the D[s] of
//     §4.2, written identically to that leaf in every ring — so the
//     internal D[v] marks of one ring only under-approximate it when
//     other rings or adds reach the node too; they prune subtrees and
//     the leaf decides, so the visited product subgraph is exactly G'_E
//     of the union graph. Only overlay-only nodes (ids beyond the rings'
//     node space) need an array of their own.
//
// An Engine owns reusable working arrays and runs an evaluation on its
// caller's goroutine, so it must not be used concurrently; build one
// per worker.
type Engine struct {
	ids      glushkov.SymbolIDs
	numPreds uint32 // completed alphabet size
	work     []*ringWork
	memo     compileMemo

	ov Delta
	// ringNodes is the node-id space every ring covers (sub-rings share
	// one); numNodes ≥ ringNodes is the snapshot's, covering overlay
	// adds.
	ringNodes, numNodes int

	pairs pairSet // fast-path result dedup (see multiring_fast.go)
	// visited holds the visited-state masks of the ids in
	// [ringNodes, numNodes); empty without a delta.
	visited *lazy.MaskArray
	queue   []queueItem
	level   []queueItem
	lpItems []wavelet.RangeMask
	lsItems []wavelet.RangeMask

	// per-evaluation state
	stats     Stats
	trace     *obs.Trace
	deadline  time.Time
	steps     int
	emit      EmitFunc
	base      uint64
	batch     bool
	eager     bool
	noCompile bool

	// st is the active stepper (compiled specialization when the
	// expression is hot, the interpreting engine otherwise); installed
	// by prepare alongside the per-ring bArr arrays.
	st glushkov.Stepper
}

// queueItem is one frontier entry: a node and the automaton states it
// was newly reached with.
type queueItem struct {
	node uint32
	d    uint64
}

// ringWork holds the per-sub-ring pruning arrays (the B[v]/D[v] masks
// of §4.1–4.2, one pair per ring because wavelet node ids are
// ring-local).
type ringWork struct {
	r      *ring.Ring
	bNode  *lazy.MaskArray
	dNode  *lazy.MaskArray
	lsPads []wavelet.NodeID

	// bArr, when non-nil, is the compiled expression's precomputed
	// immutable B[v] array for this ring, replacing bNode for the
	// current evaluation.
	bArr []uint64

	// delRanks caches, per overlay version, the tombstones' leaf ranks
	// under their subjects: the batched part 2 drops fully-tombstoned
	// leaf items (see leafMaskFor).
	delRanks        map[uint32][]int
	delRanksVersion uint64
	delRanksValid   bool
}

// NewEngine builds the kernel over the single ring r — the paper's
// setting. The ids function resolves predicate occurrences of query
// expressions to completed predicate ids (e.g. triples.Graph.PredID).
func NewEngine(r *ring.Ring, ids glushkov.SymbolIDs) *Engine {
	return NewMultiRing([]*ring.Ring{r}, ids, r.NumPreds)
}

// NewMultiRing builds the kernel over rings (sub-rings over global id
// spaces; numPreds is the completed predicate count). It starts with no
// overlay and the rings' own node space; SetDelta changes both.
func NewMultiRing(rings []*ring.Ring, ids glushkov.SymbolIDs, numPreds uint32) *Engine {
	e := &Engine{ids: ids, numPreds: numPreds,
		memo: compileMemo{ids: ids, numPreds: numPreds}, visited: lazy.NewMaskArray(0)}
	for i, r := range rings {
		e.work = append(e.work, &ringWork{
			r:      r,
			bNode:  lazy.NewMaskArray(r.Lp.NumNodes()),
			dNode:  lazy.NewMaskArray(r.Ls.NumNodes()),
			lsPads: r.Ls.PadNodes(),
		})
		e.memo.lps = append(e.memo.lps, r.Lp)
		if i == 0 || r.NumNodes < e.ringNodes {
			e.ringNodes = r.NumNodes
		}
	}
	e.SetDelta(nil, e.ringNodes)
	return e
}

// SetDelta points the kernel at one overlay version (nil for none) and
// the node-id space of its snapshot (the dictionary length when the
// snapshot was taken, covering every overlay add).
func (e *Engine) SetDelta(ov Delta, numNodes int) {
	if ov == nil {
		ov = noDelta{}
	}
	if e.ov != ov {
		for _, w := range e.work {
			w.delRanksValid = false
		}
	}
	e.ov = ov
	e.numNodes = numNodes
	if e.visited.Len() < numNodes-e.ringNodes {
		e.visited = lazy.NewMaskArray(numNodes - e.ringNodes)
	}
}

// WorkingSizeBytes reports the per-query working-array footprint (the
// paper's "array D uses 3.09 extra bytes per triple" accounting): the
// B[v] and D[v] arrays of every ring, plus the masks of overlay-only
// nodes when a delta brought any.
func (e *Engine) WorkingSizeBytes() int {
	n := 0
	for _, w := range e.work {
		n += w.bNode.SizeBytes() + w.dNode.SizeBytes()
	}
	if e.visited.Len() > 0 {
		n += e.visited.SizeBytes()
	}
	return n
}

// Automaton returns the memoised Glushkov automaton of expr (callers
// decide routing and delegation from its symbols).
func (e *Engine) Automaton(expr pathexpr.Node) *glushkov.Automaton {
	return e.memo.lookup(expr).a
}

func (e *Engine) compile(expr pathexpr.Node) *compiledAutomaton {
	return e.memo.get(expr, e.eager, e.noCompile)
}

// Eval evaluates q, calling emit for every result pair. Pairs are
// distinct (set semantics) and their order is unspecified. It returns
// the work statistics and ErrTimeout if the timeout fired (results
// emitted so far are valid but incomplete). ctx is consulted once at
// entry (FoldContext): it may carry an obs.Trace and tighten the
// deadline, but is not polled during the traversal.
func (e *Engine) Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error) {
	opts = FoldContext(ctx, opts)
	e.stats = Stats{}
	e.steps = 0
	e.base = 0
	e.batch = !opts.DisableBatching
	e.eager = opts.CompileEager
	e.noCompile = opts.DisableCompiled
	e.trace = opts.Trace
	if opts.Timeout > 0 {
		e.deadline = time.Now().Add(opts.Timeout)
	} else {
		e.deadline = time.Time{}
	}
	e.emit = func(s, o uint32) bool {
		e.stats.Results++
		if !emit(s, o) {
			return false
		}
		return opts.Limit == 0 || e.stats.Results < opts.Limit
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
	for _, w := range e.work {
		w.bNode.Reset()
		w.dNode.Reset()
		w.bArr = nil
	}
	e.queue = e.queue[:0]
	e.level = e.level[:0]
	e.base = 0
	e.st = nil
}

// prepare installs the per-evaluation stepper and B[v] masks for c:
// the compiled stepper and precomputed per-ring B[v] arrays when the
// expression is hot, else the interpreter with the masks seeded onto
// the lazy bNode arrays.
func (e *Engine) prepare(c *compiledAutomaton) {
	if e.wide(c) {
		return // the multiword fallback keeps its own state
	}
	e.st = c.st
	if c.st == nil {
		e.st = c.eng
	}
	for i, w := range e.work {
		if c.st != nil {
			w.bArr = c.bArrs[i]
		} else {
			w.bArr = nil
			for sym, mask := range c.eng.B {
				for id := w.r.Lp.LeafID(sym); id >= 1; id = id.Parent() {
					w.bNode.Or(int(id), mask)
				}
			}
		}
		w.markPads()
	}
}

// markPads pre-marks the padding subtrees of L_s as visited with every
// state, so that the bottom-up intersection marks are not blocked by
// leaves that cannot occur.
func (w *ringWork) markPads() {
	for _, id := range w.lsPads {
		w.dNode.Set(int(id), ^uint64(0))
	}
}

// start clears the visited state (keeping the B masks, so the per-start
// traversals of a v→v phase 2 share one prepare) and seeds a traversal
// from node o holding the final states.
func (e *Engine) start(eng *glushkov.Engine, o uint32) {
	e.visited.Reset()
	for _, w := range e.work {
		w.dNode.Reset()
		w.markPads()
	}
	e.markNode(o, eng.F)
	e.queue = append(e.queue[:0], queueItem{o, eng.F})
}

// seen returns the states node s has been visited with (§4.2's D[s]):
// its L_s leaf mark — the same in every ring, so the first ring's is
// read — or, for an overlay-only node, its slot of visited.
func (e *Engine) seen(s uint32) uint64 {
	if int(s) < e.ringNodes {
		w := e.work[0]
		return w.dNode.Get(int(w.r.Ls.LeafID(s)))
	}
	return e.visited.Get(int(s) - e.ringNodes)
}

// markNode records that node s was visited with states d at its L_s
// leaf in every sub-ring, or in visited for an overlay-only node.
func (e *Engine) markNode(s uint32, d uint64) {
	if int(s) >= e.ringNodes {
		e.visited.Or(int(s)-e.ringNodes, d)
	}
	for _, w := range e.work {
		if int(s) < w.r.NumNodes {
			markSubjectOn(w.dNode, w.r.Ls.LeafID(s), d)
		}
	}
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
	for _, w := range e.work {
		if int(s) < w.r.NumNodes && w.r.Co[s+1] > w.r.Co[s] {
			return true
		}
	}
	return len(e.ov.AddsInto(s)) > 0
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
	for _, w := range e.work {
		if int(o) >= w.r.NumNodes {
			continue
		}
		b, end := w.r.ObjectRange(o)
		if b == end {
			continue
		}
		if err := e.ringStep(eng, w, int64(o), b, end, d, emit); err != nil {
			return err
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

// ringStep is part 1 of §4 over one sub-ring: find the distinct
// predicates of L_p[b, end) leading to an active state, pruned by the
// aggregated B[v] masks, then map each through backward search to its
// L_s subject range (part 2).
func (e *Engine) ringStep(eng *glushkov.Engine, w *ringWork, o int64, b, end int, d uint64, emit EmitFunc) error {
	negFwd, negInv := eng.NegClassBits()
	half := e.numPreds / 2
	var failure error
	w.r.Lp.Traverse(b, end, func(node wavelet.NodeID, leaf bool, p uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		e.stats.WaveletVisits++
		if !leaf {
			// Part 1 pruning: descend only towards predicates that lead
			// to an active state (Fact 1 via the aggregated B[v]);
			// negated property sets may be reachable through any node
			// covering symbols of their half of the completed alphabet.
			var bm uint64
			if w.bArr != nil {
				bm = w.bArr[node]
			} else {
				bm = w.bNode.Get(int(node))
			}
			if d&bm != 0 {
				return true
			}
			if negFwd|negInv == 0 {
				return false
			}
			lo, hi := w.r.Lp.SymRange(node)
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
		failure = e.part2(eng, w, o, p, w.r.Cp[p]+rb, w.r.Cp[p]+re, d2, emit)
		return failure == nil
	})
	return failure
}

// part2 enumerates the distinct subjects of L_s[b, end) still carrying
// unvisited states, skipping tombstoned edges. o ≥ 0 names the exact
// object of the step; o < 0 marks the full-range phase, where a
// subject survives iff its multiplicity under p exceeds its (p, s)
// tombstone count.
func (e *Engine) part2(eng *glushkov.Engine, w *ringWork, o int64, p uint32, b, end int, d2 uint64, emit EmitFunc) error {
	checkDels := e.ov.DelsForPred(p) > 0
	var failure error
	w.r.Ls.Traverse(b, end, func(node wavelet.NodeID, leaf bool, s uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		e.stats.WaveletVisits++
		newStates := d2 &^ (w.dNode.Get(int(node)) | e.base)
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
// counting overlay adds alongside the rings.
func (e *Engine) evalBothVar(expr pathexpr.Node) error {
	a := e.Automaton(expr)
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
	// active; collect the candidates that reach the initial state.
	var starts []uint32
	collect := func(s, _ uint32) bool {
		starts = append(starts, s)
		return true
	}
	if err := e.fullRangeSources(expr1, collect); err != nil {
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
	for _, s := range starts {
		if err := e.runFrom(c2, s, pairFor(s)); err != nil {
			return err
		}
	}
	return nil
}

// fullRangeSources finds all nodes that can start a path matching expr
// towards some node: one step over every ring's complete L_p range and
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
	for _, w := range e.work {
		if err := e.ringStep(eng, w, -1, 0, w.r.N, eng.F, emit); err != nil {
			return err
		}
	}
	if err := e.addsStep(eng, e.ov.Adds(), eng.F, emit); err != nil {
		return err
	}
	return e.bfs(eng, emit)
}

// startFromObjects decides the phase-1 orientation of a v→v query
// (§5: start from the end whose boundary predicates select fewer
// triples), counting both the static rings and the overlay adds.
func (e *Engine) startFromObjects(a *glushkov.Automaton) bool {
	count := func(positions []int32) int {
		total := 0
		for _, j := range positions {
			c := a.Syms[j-1]
			if c == glushkov.NoSymbol {
				continue
			}
			for _, w := range e.work {
				total += w.r.Cp[c+1] - w.r.Cp[c]
			}
			total += len(e.ov.AddsByPred(c))
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
