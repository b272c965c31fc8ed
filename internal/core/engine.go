// Package core implements the paper's contribution (§4): evaluating 2RPQs
// directly on the ring by traversing, backwards, only the subgraph G'_E of
// the product graph induced by the query.
//
// Each traversal step starts at a range of L_p holding the triples with
// the current object and proceeds in three parts:
//
//  1. find the distinct predicates leading into the object whose targets
//     include an active NFA state, by descending the wavelet tree of L_p
//     pruned with per-node B[v] masks (Fact 1 confines the predicate's
//     influence to B, so one mask test per node suffices);
//  2. find the distinct source subjects per predicate by descending the
//     wavelet tree of L_s pruned with per-node visited-state masks D[v],
//     which also prevents loops in the product graph;
//  3. re-interpret each subject as an object via C_o and continue.
//
// The bit-parallel Glushkov simulation advances all active NFA states at
// once, and starting v→v queries from the full L_p range advances all
// graph nodes at once — the two speedups over classical node-at-a-time
// product-graph search that the paper highlights.
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

// Variable marks a query endpoint as unbound.
const Variable int64 = -1

// Query is a 2RPQ (s, E, o) over dictionary-encoded ids: Subject and
// Object are node ids, or Variable.
type Query struct {
	Subject int64
	Expr    pathexpr.Node
	Object  int64
}

// Options tune one evaluation.
type Options struct {
	// Limit caps the number of emitted results; 0 means unlimited.
	Limit int
	// Timeout bounds wall-clock evaluation time; 0 means none.
	Timeout time.Duration
	// DisableFastPaths forces the generic product-graph algorithm even
	// for the join-like patterns of §5 (used by the ablation benchmark).
	DisableFastPaths bool
	// DisableNodeMarks turns off the per-wavelet-node visited masks D[v]
	// (§4.2), keeping only per-subject marks (ablation).
	DisableNodeMarks bool
	// DisableBatching reverts the level-synchronous frontier-batched
	// traversal to the item-at-a-time descent, where every (node, states)
	// frontier entry pays its own root-to-leaf wavelet descent (ablation;
	// rpqbench reports both modes side by side).
	DisableBatching bool
	// CompileEager compiles the expression into a specialized stepper on
	// first use instead of waiting for it to get hot (Subscribe and the
	// benchmarks use this).
	CompileEager bool
	// DisableCompiled forces the generic interpreted simulation — the
	// multiword fallback kept for wide (>64-state) expressions — even
	// for expressions the compilation tier could specialize. It is the
	// ablation baseline ("interpreted" in BENCH_PR7.json) and the
	// differential oracle: the fallback interprets the automaton with
	// per-step multiword masks and a visited hash map, with none of the
	// flat B[v]/D[v] wavelet-node pruning arrays or compiled steppers.
	DisableCompiled bool
	// Trace, when non-nil, records a traverse span with the evaluation's
	// Stats plus one span per BFS level (frontier size, wavelet-node
	// visits). Nil — the default — records nothing and costs one pointer
	// test per level.
	Trace *obs.Trace
}

// ErrTimeout reports that evaluation exceeded Options.Timeout.
var ErrTimeout = errors.New("core: query timeout")

// errLimit stops the traversal when the result limit is hit; it is
// internal and mapped to a nil error (truncated results are still valid).
var errLimit = errors.New("core: result limit")

// Stats counts the work of one evaluation; the Theorem 4.1 test checks
// these against the size of the induced product subgraph.
type Stats struct {
	// ProductNodes counts (node, state) pairs activated for the first
	// time, i.e. visited nodes of G'_E.
	ProductNodes int
	// ProductEdges counts backward-search steps taken (predicate leaves
	// reached in part 1), i.e. traversed edge groups of G'_E.
	ProductEdges int
	// WaveletVisits counts wavelet-tree nodes touched in parts 1 and 2.
	WaveletVisits int
	// Results counts emitted pairs.
	Results int
}

// EmitFunc receives one (subject, object) result pair. Returning false
// stops the evaluation early.
type EmitFunc func(s, o uint32) bool

// Engine evaluates queries over a ring. It owns reusable working arrays,
// so a single Engine must not be used concurrently; build one per worker.
type Engine struct {
	r   *ring.Ring
	ids glushkov.SymbolIDs

	// bNode holds the B[v] masks over the wavelet nodes of L_p (§4.1).
	bNode *lazy.MaskArray
	// dNode holds visited-state marks over the wavelet nodes of L_s:
	// leaf entries are the D[s] of §4.2 and internal entries the
	// intersection of their children, maintained bottom-up.
	dNode *lazy.MaskArray

	// subjLeaf caches LeafID(s) lookups for part 3 starts.
	lsPads []wavelet.NodeID

	// memo holds the engine's Glushkov compilations (see compile.go).
	memo compileMemo

	queue []queueItem

	// lpItems and lsItems are the scratch range lists of the batched
	// traversal: a whole frontier level as sorted disjoint L_p ranges,
	// and the per-step L_s ranges it maps to.
	lpItems, lsItems []wavelet.RangeMask

	// pairs dedups (s, o) result pairs across the §5 fast-path branches;
	// owned by the engine so fast-path queries allocate nothing.
	pairs pairSet

	// per-evaluation state
	stats     Stats
	trace     *obs.Trace
	deadline  time.Time
	steps     int
	emit      EmitFunc
	limit     int
	noMarks   bool
	batch     bool
	eager     bool
	noCompile bool
	failure   error

	// st is the active stepper for the current evaluation: the compiled
	// specialization when the expression is hot, otherwise the
	// interpreting glushkov.Engine itself. bArr is the compiled
	// counterpart of bNode — an immutable per-(expression, ring) B[v]
	// array built once at stepper-compile time, replacing the lazy
	// per-eval seeding and its per-visit epoch check; nil when
	// interpreting.
	st   glushkov.Stepper
	bArr []uint64

	// groupD pools the per-member visited-mask arrays of EvalGroup.
	groupD []*lazy.MaskArray
}

type queueItem struct {
	node uint32
	d    uint64
}

// NewEngine builds an evaluation engine over r. The ids function resolves
// predicate occurrences of query expressions to completed predicate ids
// (e.g. triples.Graph.PredID).
func NewEngine(r *ring.Ring, ids glushkov.SymbolIDs) *Engine {
	return &Engine{
		r:      r,
		ids:    ids,
		memo:   compileMemo{ids: ids, numPreds: r.NumPreds, lps: []wavelet.Seq{r.Lp}},
		bNode:  lazy.NewMaskArray(r.Lp.NumNodes()),
		dNode:  lazy.NewMaskArray(r.Ls.NumNodes()),
		lsPads: r.Ls.PadNodes(),
	}
}

// WorkingSizeBytes reports the per-query working-array footprint (the
// paper's "array D uses 3.09 extra bytes per triple" accounting).
func (e *Engine) WorkingSizeBytes() int {
	return e.bNode.SizeBytes() + e.dNode.SizeBytes()
}

// FoldContext merges ctx-carried request state into opts: an unset
// Trace is filled from the context (obs.FromContext), and a context
// deadline earlier than Options.Timeout tightens it. Engines call it
// once per evaluation, so ctx costs nothing on the traversal hot path;
// cancellation between results remains the caller's job (the service's
// emit wrapper polls ctx.Err).
func FoldContext(ctx context.Context, opts Options) Options {
	if ctx == nil {
		return opts
	}
	if opts.Trace == nil {
		opts.Trace = obs.FromContext(ctx)
	}
	if d, ok := ctx.Deadline(); ok {
		rem := time.Until(d)
		if rem <= 0 {
			rem = time.Nanosecond // already expired: the first probe fires
		}
		if opts.Timeout == 0 || rem < opts.Timeout {
			opts.Timeout = rem
		}
	}
	return opts
}

// Eval evaluates q, calling emit for every result pair. Pairs are
// distinct (set semantics). It returns the work statistics and ErrTimeout
// if the timeout fired (results emitted so far are valid but incomplete).
// ctx is consulted once at entry (FoldContext): it may carry an obs.Trace
// and tighten the deadline, but is not polled during the traversal.
func (e *Engine) Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error) {
	opts = FoldContext(ctx, opts)
	e.stats = Stats{}
	e.steps = 0
	e.failure = nil
	e.limit = opts.Limit
	e.noMarks = opts.DisableNodeMarks
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
// algorithm, depending on its shape.
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

// compile returns the memoised Glushkov compilation of expr, counting
// the use towards the stepper tier.
func (e *Engine) compile(expr pathexpr.Node) *compiledAutomaton {
	return e.memo.get(expr, e.eager, e.noCompile)
}

// prepare builds the bit-parallel engine for expr and installs the
// per-evaluation stepper: the compiled stepper and precomputed B[v]
// array when the expression is hot, otherwise the interpreter with the
// B[v] masks seeded onto the lazy bNode array. A nil engine with nil
// error signals the multiword fallback is needed.
func (e *Engine) prepare(expr pathexpr.Node) (*glushkov.Engine, error) {
	if e.noCompile {
		// Ablation / oracle mode: evaluate on the generic multiword
		// fallback, exactly as a too-wide expression would.
		return nil, nil
	}
	ca := e.compile(expr)
	eng := ca.eng
	if eng == nil {
		return nil, nil
	}
	if ca.st != nil {
		e.st, e.bArr = ca.st, ca.bArrs[0]
		return eng, nil
	}
	e.st, e.bArr = eng, nil
	for c, mask := range eng.B {
		for id := e.r.Lp.LeafID(c); id >= 1; id = id.Parent() {
			e.bNode.Or(int(id), mask)
		}
	}
	return eng, nil
}

// release resets the per-query working arrays in O(1).
func (e *Engine) release() {
	e.bNode.Reset()
	e.dNode.Reset()
	e.queue = e.queue[:0]
	e.pairs.reset()
	e.st = nil
	e.bArr = nil
}

// markPads pre-marks the padding subtrees of L_s as "visited with every
// state", so that the bottom-up intersection marks are not blocked by
// leaves that cannot occur.
func (e *Engine) markPads() {
	for _, id := range e.lsPads {
		e.dNode.Set(int(id), ^uint64(0))
	}
}

// evalToConst evaluates (x, E, o) for a fixed object o, emitting (s, o)
// pairs — or (o, s) when swap is set (the (s, E, y) rewriting).
func (e *Engine) evalToConst(expr pathexpr.Node, o uint32, swap bool) error {
	// The traversal reports the nodes r reached with the initial state
	// active; the result pair is (r, o) — or (o, r) under the (s, E, y)
	// rewriting, where the fixed endpoint is the subject.
	emit := func(r, _ uint32) bool {
		if swap {
			return e.emit(o, r)
		}
		return e.emit(r, o)
	}
	eng, _ := e.prepare(expr)
	if eng == nil {
		return e.wideEvalToConst(expr, o, swap)
	}
	defer e.release()
	if int(o) >= e.r.NumNodes {
		return nil
	}
	if eng.A.Nullable {
		if !emit(o, o) {
			return errLimit
		}
	}
	e.markPads()
	// Mark the start: o has been visited with all final states (§4.2).
	e.markSubject(e.r.Ls.LeafID(o), eng.F)
	e.queue = append(e.queue, queueItem{o, eng.F})
	return e.bfs(eng, 0, emit)
}

// evalBothConst evaluates (s, E, o) with both endpoints fixed, stopping
// at the first match (§4.4; this case is excluded from Theorem 4.1).
func (e *Engine) evalBothConst(expr pathexpr.Node, s, o uint32) error {
	eng, _ := e.prepare(expr)
	if eng == nil {
		return e.wideEvalBothConst(expr, s, o)
	}
	defer e.release()
	if int(o) >= e.r.NumNodes || int(s) >= e.r.NumNodes {
		return nil
	}
	if eng.A.Nullable && s == o {
		e.emit(s, o)
		return nil
	}
	found := false
	emit := func(got, _ uint32) bool {
		if got == s {
			found = true
			e.emit(s, o)
			return false // stop the traversal
		}
		return true
	}
	e.markPads()
	e.markSubject(e.r.Ls.LeafID(o), eng.F)
	e.queue = append(e.queue, queueItem{o, eng.F})
	err := e.bfs(eng, 0, emit)
	if found && errors.Is(err, errLimit) {
		err = nil
	}
	return err
}

// evalBothVar evaluates (x, E, y) (§4.4): a first traversal from the full
// L_p range finds every node that can start a matching path; a second
// per-source traversal enumerates its reachable objects. The orientation
// is chosen by predicate selectivity (§5: "we choose to start from the
// end whose predicate has the smallest cardinality").
func (e *Engine) evalBothVar(expr pathexpr.Node) error {
	// Nullable expressions relate every node to itself via the empty
	// path; emit those pairs upfront, then suppress (v,v) rediscovery.
	// The loop is O(|V|) before any traversal work, so it honours the
	// deadline too — a short Options.Timeout must be able to interrupt
	// it on large graphs.
	a := e.compile(expr).a
	if a.Nullable {
		for v := 0; v < e.r.NumNodes; v++ {
			if err := e.checkDeadline(); err != nil {
				return err
			}
			if !e.emit(uint32(v), uint32(v)) {
				return errLimit
			}
		}
	}

	fromObjects := e.startFromObjects(a)
	phase1Expr := expr
	if fromObjects {
		phase1Expr = pathexpr.InverseOf(expr)
	}

	// Phase 1: collect candidate endpoints from the full range.
	var starts []uint32
	collect := func(s, _ uint32) bool {
		starts = append(starts, s)
		return true
	}
	if err := e.fullRangeSources(phase1Expr, collect); err != nil {
		return err
	}

	// Phase 2: one constrained traversal per candidate. The automaton
	// and the B[v] masks depend only on the expression, so they are
	// built once and shared; only the visited marks reset per start.
	nullable := a.Nullable
	expr2 := expr
	if !fromObjects {
		expr2 = pathexpr.InverseOf(expr)
	}
	phase2Emit := func(s uint32) EmitFunc {
		if fromObjects {
			// s is an object candidate: the traversal reports sources.
			return func(src, _ uint32) bool {
				if nullable && src == s {
					return true // (s,s) already emitted
				}
				return e.emit(src, s)
			}
		}
		// s is a source candidate: the traversal of Ê reports objects.
		return func(o, _ uint32) bool {
			if nullable && o == s {
				return true
			}
			return e.emit(s, o)
		}
	}

	eng2, _ := e.prepare(expr2)
	if eng2 == nil {
		for _, s := range starts {
			if err := e.wideRunToConst(expr2, s, phase2Emit(s)); err != nil {
				return err
			}
		}
		return nil
	}
	defer e.release()
	for _, s := range starts {
		e.dNode.Reset()
		e.queue = e.queue[:0]
		e.markPads()
		e.markSubject(e.r.Ls.LeafID(s), eng2.F)
		e.queue = append(e.queue, queueItem{s, eng2.F})
		if err := e.bfs(eng2, 0, phase2Emit(s)); err != nil {
			return err
		}
	}
	return nil
}

// fullRangeSources finds all nodes that can start a path matching expr
// towards some node, starting the backward traversal from the full L_p
// range (the ring's range capability, §4.4).
func (e *Engine) fullRangeSources(expr pathexpr.Node, emit EmitFunc) error {
	eng, _ := e.prepare(expr)
	if eng == nil {
		return e.wideFullRangeSources(expr, emit)
	}
	defer e.release()
	e.markPads()
	// Every object conceptually starts with the final states active, so
	// states in F (minus the initial state, which carries no outgoing
	// work but must stay reportable) count as already visited everywhere.
	base := eng.F &^ eng.Init
	if e.batch {
		// Level 0 is a single full-range item; the batched step already
		// drains it into the next frontier.
		e.lpItems = append(e.lpItems[:0], wavelet.RangeMask{B: 0, E: e.r.N, Mask: eng.F})
		if err := e.stepMany(eng, e.lpItems, base, emit); err != nil {
			return err
		}
		return e.bfsBatched(eng, base, emit)
	}
	if err := e.step(eng, 0, e.r.N, eng.F, base, emit); err != nil {
		return err
	}
	return e.bfs(eng, base, emit)
}

// startFromObjects decides the phase-1 orientation of a v→v query: true
// means collect objects first (traverse Ê), false sources first
// (traverse E). The cheaper side is the one whose boundary predicates
// select fewer triples.
func (e *Engine) startFromObjects(a *glushkov.Automaton) bool {
	count := func(positions []int32) int {
		total := 0
		for _, j := range positions {
			c := a.Syms[j-1]
			if c == glushkov.NoSymbol {
				continue
			}
			total += e.r.Cp[c+1] - e.r.Cp[c]
		}
		return total
	}
	// Boundary predicates: first positions start paths (near subjects),
	// last positions end them (near objects).
	firstCard := count(a.Follow[0])
	lastCard := count(a.Last)
	// The backward traversal's initial step scans the *last* predicates;
	// prefer the orientation whose first scan is smaller.
	return firstCard < lastCard
}

// bfs drains the worklist, expanding each (node, states) item (§4 parts
// 1–3). The default is the frontier-batched level-synchronous traversal
// (one multi-range wavelet descent per level and part);
// Options.DisableBatching switches to the item-at-a-time FIFO on the
// classic per-item descent.
func (e *Engine) bfs(eng *glushkov.Engine, base uint64, emit EmitFunc) error {
	if e.batch {
		return e.bfsBatched(eng, base, emit)
	}
	for head := 0; head < len(e.queue); head++ {
		it := e.queue[head]
		b, end := e.r.ObjectRange(it.node)
		if err := e.step(eng, b, end, it.d, base, emit); err != nil {
			return err
		}
	}
	return nil
}

// step performs one backward NFA step from the L_p range [b, end) with
// active states d: part 1 over L_p, part 2 over L_s, part 3 via C_o
// (enqueue).
func (e *Engine) step(eng *glushkov.Engine, b, end int, d, base uint64, emit EmitFunc) error {
	if err := e.checkDeadline(); err != nil {
		return err
	}
	// Negated property sets contribute to the part-1 filter per node
	// direction: a class position may be reachable through any wavelet
	// node that covers symbols of its half of the completed alphabet.
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
			// to an active state (Fact 1 via the aggregated B[v]).
			var bm uint64
			if e.bArr != nil {
				bm = e.bArr[node]
			} else {
				bm = e.bNode.Get(int(node))
			}
			if d&bm != 0 {
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
		// A single frontier level can cover an unbounded number of
		// predicate leaves, so the deadline is probed per expansion here
		// too, not only per step (checkDeadline amortizes the clock read).
		if err := e.checkDeadline(); err != nil {
			failure = err
			return false
		}
		bp := e.st.PredMask(p)
		if d&bp == 0 {
			return true
		}
		e.stats.ProductEdges++
		// The NFA transition is the same for every subject below (Fact 1).
		d2 := e.st.StepBack(d & bp)
		if d2 == 0 {
			return true
		}
		// Backward search step (Eqs. 4–5): the rank range [rb, re) of p
		// plus C_p gives the L_s range of sources.
		lsB := e.r.Cp[p] + rb
		lsE := e.r.Cp[p] + re
		if err := e.part2(eng, lsB, lsE, d2, base, emit); err != nil {
			failure = err
			return false
		}
		return true
	})
	return failure
}

// part2 enumerates the distinct subjects of L_s[b, end) that still have
// unvisited states in d2, marks them, reports sources, and enqueues the
// continuation (§4.2–4.3).
func (e *Engine) part2(eng *glushkov.Engine, b, end int, d2, base uint64, emit EmitFunc) error {
	var failure error
	e.r.Ls.Traverse(b, end, func(node wavelet.NodeID, leaf bool, s uint32, rb, re int, full bool) bool {
		if failure != nil {
			return false
		}
		e.stats.WaveletVisits++
		visited := e.dNode.Get(int(node)) | base
		if !leaf {
			if e.noMarks {
				return true
			}
			// Prune subtrees all of whose subjects were already visited
			// with every state in d2.
			return d2&^visited != 0
		}
		// Dense objects make one part-2 call cover many subject leaves;
		// probe the deadline per leaf so a single huge level cannot run
		// far past it.
		if err := e.checkDeadline(); err != nil {
			failure = err
			return false
		}
		newStates := d2 &^ visited
		if newStates == 0 {
			return true
		}
		e.stats.ProductNodes++
		e.markSubject(node, d2)
		if newStates&eng.Init != 0 {
			if !emit(s, 0) {
				failure = errLimit
				return false
			}
			newStates &^= eng.Init // the initial state has no incoming work
		}
		if newStates != 0 && e.r.Co[s+1] > e.r.Co[s] {
			e.queue = append(e.queue, queueItem{s, newStates})
		}
		return true
	})
	return failure
}

// markSubject records that the subject at leaf id has been visited with
// the given states and restores the invariant that every internal mark is
// the intersection of its children (conservatively using zero for
// untouched real leaves and all-ones for padding, via markPads).
func (e *Engine) markSubject(leaf wavelet.NodeID, states uint64) {
	e.dNode.Or(int(leaf), states)
	if e.noMarks {
		return
	}
	for id := leaf.Parent(); id >= 1; id = id.Parent() {
		v := e.dNode.Get(int(2*id)) & e.dNode.Get(int(2*id+1))
		if v == e.dNode.Get(int(id)) {
			break
		}
		e.dNode.Set(int(id), v)
	}
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
