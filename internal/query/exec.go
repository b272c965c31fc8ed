package query

import (
	"context"
	"errors"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/ltj"
	"ringrpq/internal/obs"
	"ringrpq/internal/overlay"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// ErrCrossShard reports a pattern whose clauses span several sub-rings
// of a sharded index: every matching path of every clause must live in
// one shard for the join to be routed wholesale, and cross-shard joins
// are not yet supported (the RPQ-only multi-ring traversal does not
// extend to LTJ's rotation walks).
var ErrCrossShard = errors.New("query: graph pattern spans multiple shards (cross-shard joins are not yet supported)")

// ErrTimeout re-exports the engine's timeout error: bindings emitted
// before the deadline are valid but incomplete.
var ErrTimeout = core.ErrTimeout

// Options tune one pattern evaluation.
type Options struct {
	// Limit caps the number of emitted bindings; 0 means unlimited.
	Limit int
	// Timeout bounds wall-clock evaluation time; 0 means none.
	// Exceeding it returns ErrTimeout. The budget is one absolute
	// deadline captured at entry covering planning, the LTJ core and
	// every RPQ step — a pattern never runs materially past 1× it.
	Timeout time.Duration
	// Trace, when non-nil, records plan / ltj_join / rpq_step spans
	// (and, nested below them, the engines' traverse and level spans).
	Trace *obs.Trace
}

// Binding is one result row: variable name (without '?') to the bound
// node name — or, for predicate-position variables, the completed
// predicate name ('^'-prefixed for inverses).
type Binding map[string]string

// Exec evaluates graph patterns over one database layout. Like
// core.Engine it owns working state and must not be used concurrently;
// build one per worker (the SelCache may be shared across them).
type Exec struct {
	g   *triples.Graph
	r   *ring.Ring     // single-ring layout (nil when sharded)
	set *ring.ShardSet // sharded layout (nil when single-ring)
	sel *SelCache

	// ov, when non-nil and non-empty, switches execution to the
	// overlay-aware union mode: every clause (triple patterns included)
	// becomes a pipelined step over union evaluators, so patterns see
	// ring ∪ adds − dels. numNodes is the owning snapshot's node-id
	// space.
	ov       *overlay.Overlay
	numNodes int

	engines  map[engineKey]*core.Engine
	uengines map[engineKey]*overlay.Engine
	// plans memoises planning by canonical query text and routed ring
	// (dirtyPlans holds the all-steps union-mode variants): the
	// planner's order search and estimate lookups depend only on
	// the immutable static index, so a long-lived Exec (a service
	// worker) re-running a pattern pays planning once.
	plans      map[planKey]*Plan
	dirtyPlans map[planKey]*Plan
}

// planKey identifies one memoised plan.
type planKey struct {
	canon string
	r     *ring.Ring
}

// maxPlans bounds the per-Exec plan memo; on overflow the whole memo
// is dropped (replanning a handful of patterns is cheaper than
// tracking recency), mirroring core's compilation memo.
const maxPlans = 128

// engineKey identifies one engine slot: the routed ring and the RPQ
// pipeline depth (nested path steps each need their own working
// arrays).
type engineKey struct {
	r     *ring.Ring
	depth int
}

// NewExec builds a pattern executor over a single ring. A nil sel
// builds a private selectivity cache.
func NewExec(g *triples.Graph, r *ring.Ring, sel *SelCache) *Exec {
	if sel == nil {
		sel = NewSelCache()
	}
	return &Exec{g: g, r: r, sel: sel, engines: map[engineKey]*core.Engine{}}
}

// NewExecSharded builds a pattern executor over a shard set.
func NewExecSharded(g *triples.Graph, set *ring.ShardSet, sel *SelCache) *Exec {
	if sel == nil {
		sel = NewSelCache()
	}
	return &Exec{g: g, set: set, sel: sel, engines: map[engineKey]*core.Engine{}}
}

// SetOverlay points the executor at a snapshot's overlay (nil or empty
// restores the plain static path). Call before Run, under the same
// one-caller discipline as Run itself.
func (x *Exec) SetOverlay(ov *overlay.Overlay, numNodes int) {
	x.ov = ov
	x.numNodes = numNodes
}

// dirty reports whether union-mode execution is on.
func (x *Exec) dirty() bool { return x.ov != nil && !x.ov.Empty() }

// ids resolves predicate occurrences against the graph dictionaries.
func (x *Exec) ids(s pathexpr.Sym) (uint32, bool) {
	return x.g.PredID(s.Name, s.Inverse)
}

// allRings lists the layout's sub-rings.
func (x *Exec) allRings() []*ring.Ring {
	if x.set != nil {
		return x.set.Shards
	}
	return []*ring.Ring{x.r}
}

// engineFor returns the static engine for one (ring, pipeline depth)
// slot, building it on first use.
func (x *Exec) engineFor(r *ring.Ring, depth int) *core.Engine {
	key := engineKey{r, depth}
	if e, ok := x.engines[key]; ok {
		return e
	}
	e := core.NewEngine(r, x.ids)
	x.engines[key] = e
	return e
}

// evaluatorFor returns the evaluator a step at the given depth should
// use: the routed ring's static engine, or — in union mode — an
// overlay engine over every sub-ring that delegates to it when the
// step's predicates are untouched.
func (x *Exec) evaluatorFor(r *ring.Ring, depth int) core.Evaluator {
	static := x.engineFor(r, depth)
	if !x.dirty() {
		return static
	}
	key := engineKey{r, depth}
	ue, ok := x.uengines[key]
	if !ok {
		if x.uengines == nil {
			x.uengines = map[engineKey]*overlay.Engine{}
		}
		ue = overlay.NewEngine(static, x.allRings(), x.ids, x.g.NumCompletedPreds())
		x.uengines[key] = ue
	}
	ue.SetSnapshot(x.ov, x.numNodes)
	return ue
}

// route picks the ring the whole pattern runs on. For the single-ring
// layout that is trivially the ring; for a sharded layout every
// predicate any clause can touch must map to one shard (variable
// predicates and negated property sets span shards by construction).
func (x *Exec) route(q *Query) (*ring.Ring, error) {
	if x.set == nil {
		return x.r, nil
	}
	if x.set.K == 1 {
		return x.set.Shards[0], nil
	}
	shard := -1
	assign := func(k int) error {
		if shard == -1 {
			shard = k
		} else if shard != k {
			return ErrCrossShard
		}
		return nil
	}
	for _, c := range q.Clauses {
		if c.PredVar != "" {
			// A variable predicate ranges over every completed
			// predicate, hence over every shard.
			return nil, ErrCrossShard
		}
		if pathexpr.HasNegSets(c.Path) {
			return nil, ErrCrossShard
		}
		for _, s := range pathexpr.Predicates(c.Path) {
			id, ok := x.ids(s)
			if !ok {
				continue // matches nothing; no shard constraint
			}
			if err := assign(x.set.ShardFor(id)); err != nil {
				return nil, err
			}
		}
	}
	if shard == -1 {
		shard = 0 // no known predicate: any shard answers (empty/ε cases)
	}
	return x.set.Shards[shard], nil
}

// Plan resolves and plans q without executing it (explain output and
// planner tests).
func (x *Exec) Plan(q *Query) (*Plan, error) {
	r, err := x.route(q)
	if err != nil {
		return nil, err
	}
	return x.planFor(q, r, time.Time{}, x.dirty())
}

// planFor returns the memoised plan of q on ring r, planning on first
// use under the given absolute deadline (zero = none). allSteps plans
// every clause as a pipelined step (union mode bypasses LTJ, which
// reads only the static ring).
func (x *Exec) planFor(q *Query, r *ring.Ring, deadline time.Time, allSteps bool) (*Plan, error) {
	memo := &x.plans
	if allSteps {
		memo = &x.dirtyPlans
	}
	key := planKey{canon: q.String(), r: r}
	if pl, ok := (*memo)[key]; ok {
		return pl, nil
	}
	p := &planner{g: x.g, r: r, sel: x.sel.For(r), deadline: deadline}
	pl, err := p.plan(q, allSteps)
	if err != nil {
		return nil, err
	}
	if *memo == nil || len(*memo) >= maxPlans {
		*memo = make(map[planKey]*Plan, 16)
	}
	(*memo)[key] = pl
	return pl, nil
}

// Run evaluates q, calling emit for every result binding. Bindings are
// distinct; emit may return false to stop early. The map passed to emit
// is freshly allocated per call and may be retained. Exceeding
// Options.Timeout returns ErrTimeout with the bindings emitted so far
// still valid; Options.Limit truncates silently.
func (x *Exec) Run(q *Query, opts Options, emit func(Binding) bool) error {
	// One absolute deadline captured at entry governs routing,
	// planning, LTJ and every RPQ step: planning runs on the clock.
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	r, err := x.route(q)
	if err != nil {
		return err
	}
	psp := opts.Trace.Begin(obs.SpanPlan)
	pl, err := x.planFor(q, r, deadline, x.dirty())
	opts.Trace.End(psp)
	if err != nil {
		return err
	}
	if pl.Empty {
		return nil
	}
	rt := &run{
		x: x, r: r, plan: pl, emit: emit,
		limit:    opts.Limit,
		row:      map[string]uint32{},
		predVars: q.PredVars(),
		deadline: deadline,
		trace:    opts.Trace,
	}

	if len(pl.Triples) > 0 {
		rem, ok := rt.remaining()
		if !ok {
			return ErrTimeout
		}
		lopts := ltj.Options{Order: pl.Order, Timeout: rem}
		jsp := rt.trace.Begin(obs.SpanLTJ)
		st, err := ltj.JoinWith(r, pl.Triples, lopts, func(vals []uint32) bool {
			// Every row overwrites the same Order keys, so none is
			// deleted in between.
			for i, v := range pl.Order {
				rt.row[v] = vals[i]
			}
			return rt.steps(0)
		})
		rt.trace.EndVals(jsp, st.Rows, st.Seeks, st.Binds)
		if errors.Is(err, ltj.ErrTimeout) {
			return ErrTimeout
		}
		if err != nil {
			return err
		}
		return rt.failure
	}
	rt.steps(0)
	return rt.failure
}

// run is the per-evaluation state of one pattern execution.
type run struct {
	x        *Exec
	r        *ring.Ring
	plan     *Plan
	emit     func(Binding) bool
	limit    int
	emitted  int
	row      map[string]uint32
	predVars map[string]bool
	deadline time.Time
	ticks    int
	failure  error
	trace    *obs.Trace
}

// remaining converts the deadline into a per-call engine timeout; false
// means the deadline already passed.
func (rt *run) remaining() (time.Duration, bool) {
	if rt.deadline.IsZero() {
		return 0, true
	}
	rem := time.Until(rt.deadline)
	if rem <= 0 {
		rt.failure = ErrTimeout
		return 0, false
	}
	return rem, true
}

// tick is a cheap amortised deadline probe for the executor's own
// loops (the union-mode edge enumerations).
func (rt *run) tick() bool {
	rt.ticks++
	if rt.deadline.IsZero() || rt.ticks%256 != 0 {
		return true
	}
	if time.Now().After(rt.deadline) {
		rt.failure = ErrTimeout
		return false
	}
	return true
}

// steps runs the RPQ pipeline from step i under the current row,
// emitting completed bindings at the end; false stops the whole
// enumeration (failure, limit, or the caller's emit).
func (rt *run) steps(i int) bool {
	if rt.failure != nil {
		return false
	}
	if i == len(rt.plan.Steps) {
		return rt.emitRow()
	}
	s := rt.plan.Steps[i]
	if s.PredVar != "" {
		return rt.predVarStep(i, s)
	}
	sid, sBound := rt.resolve(s.SVar, s.SID)
	oid, oBound := rt.resolve(s.OVar, s.OID)
	rem, ok := rt.remaining()
	if !ok {
		return false
	}
	eng := rt.x.evaluatorFor(rt.r, i)
	copts := core.Options{Timeout: rem, Trace: rt.trace}

	cq := core.Query{Subject: core.Variable, Object: core.Variable, Expr: s.Expr}
	if sBound {
		cq.Subject = sid
	}
	if oBound {
		cq.Object = oid
	}

	ssp := rt.trace.Begin(obs.SpanRPQStep)
	cont := true
	var err error
	switch {
	case sBound && oBound:
		found := false
		_, err = eng.Eval(context.Background(), cq, core.Options{Timeout: rem, Limit: 1, Trace: rt.trace}, func(uint32, uint32) bool {
			found = true
			return false
		})
		if err == nil && found {
			cont = rt.steps(i + 1)
		}
	case !sBound && !oBound && s.SVar == s.OVar && s.SVar != "":
		// Same unbound variable on both ends: only v→v loops bind it.
		_, err = eng.Eval(context.Background(), cq, copts, func(a, b uint32) bool {
			if a != b {
				return true
			}
			rt.row[s.SVar] = a
			cont = rt.steps(i + 1)
			delete(rt.row, s.SVar)
			return cont
		})
	default:
		_, err = eng.Eval(context.Background(), cq, copts, func(a, b uint32) bool {
			if !sBound && s.SVar != "" {
				rt.row[s.SVar] = a
			}
			if !oBound && s.OVar != "" {
				rt.row[s.OVar] = b
			}
			cont = rt.steps(i + 1)
			if !sBound && s.SVar != "" {
				delete(rt.row, s.SVar)
			}
			if !oBound && s.OVar != "" {
				delete(rt.row, s.OVar)
			}
			return cont
		})
	}
	rt.trace.End(ssp)
	if err != nil {
		if errors.Is(err, core.ErrTimeout) {
			rt.failure = ErrTimeout
		} else {
			rt.failure = err
		}
		return false
	}
	return cont
}

// predVarStep executes a variable-predicate triple pattern in union
// mode by enumerating matching union edges directly (the static path
// joins these through LTJ instead, which union mode bypasses).
func (rt *run) predVarStep(i int, st PathStep) bool {
	sid, sBound := rt.resolve(st.SVar, st.SID)
	oid, oBound := rt.resolve(st.OVar, st.OID)
	pid := int64(core.Variable)
	if v, ok := rt.row[st.PredVar]; ok {
		pid = int64(v)
	}
	if !sBound {
		sid = core.Variable
	}
	if !oBound {
		oid = core.Variable
	}
	cont := true
	rt.x.eachUnionEdge(sid, pid, oid, func(es, ep, eo uint32) bool {
		if !rt.tick() {
			return false
		}
		// Bind the step's variables against the edge, rejecting
		// inconsistent repeats (e.g. ?x ?x ?x) and unwinding after the
		// recursive continuation.
		okRow := true
		var added []string
		try := func(name string, v uint32) {
			if !okRow || name == "" {
				return
			}
			if cur, bound := rt.row[name]; bound {
				if cur != v {
					okRow = false
				}
				return
			}
			rt.row[name] = v
			added = append(added, name)
		}
		try(st.SVar, es)
		try(st.PredVar, ep)
		try(st.OVar, eo)
		if okRow {
			cont = rt.steps(i + 1)
		}
		for _, n := range added {
			delete(rt.row, n)
		}
		return cont
	})
	return cont && rt.failure == nil
}

// eachUnionEdge streams the union edges matching the given constraints
// (core.Variable wildcards), distinct by construction: the static
// sub-rings partition the static triples, overlay adds are disjoint
// from them, and tombstoned edges are dropped.
func (x *Exec) eachUnionEdge(sid, pid, oid int64, fn func(s, p, o uint32) bool) {
	half := x.g.NumPreds
	inv := func(p uint32) uint32 {
		if p < half {
			return p + half
		}
		return p - half
	}
	rings, ov := x.allRings(), x.ov
	inOf := func(o uint32, f func(p, s uint32) bool) bool {
		return overlay.EachInEdge(rings, ov, o, f)
	}
	filter := func(s, p, o uint32) bool {
		if sid != core.Variable && int64(s) != sid {
			return true
		}
		if pid != core.Variable && int64(p) != pid {
			return true
		}
		if oid != core.Variable && int64(o) != oid {
			return true
		}
		return fn(s, p, o)
	}
	switch {
	case oid != core.Variable:
		if oid >= 0 && int(oid) < x.numNodes {
			inOf(uint32(oid), func(p, s uint32) bool { return filter(s, p, uint32(oid)) })
		}
	case sid != core.Variable:
		// Out-edges of s are the inverses of its in-edges in the
		// completed graph: (s, p, o) ⟺ (o, p̂, s).
		if sid >= 0 && int(sid) < x.numNodes {
			inOf(uint32(sid), func(q, o uint32) bool { return filter(uint32(sid), inv(q), o) })
		}
	default:
		for o := 0; o < x.numNodes; o++ {
			if !inOf(uint32(o), func(p, s uint32) bool { return filter(s, p, uint32(o)) }) {
				return
			}
		}
	}
}

// resolve returns the id a step endpoint is fixed to, if any: a
// constant, or a variable already bound by LTJ or an earlier step.
func (rt *run) resolve(v string, constID int64) (int64, bool) {
	if v == "" {
		if constID == core.Variable {
			return core.Variable, false
		}
		return constID, true
	}
	if id, ok := rt.row[v]; ok {
		return int64(id), true
	}
	return core.Variable, false
}

// emitRow renders the current row as a Binding and delivers it.
func (rt *run) emitRow() bool {
	b := make(Binding, len(rt.row))
	for k, v := range rt.row {
		if rt.predVars[k] {
			b[k] = rt.x.g.PredName(v)
		} else {
			b[k] = rt.x.g.Nodes.Name(v)
		}
	}
	rt.emitted++
	if !rt.emit(b) {
		return false
	}
	return rt.limit == 0 || rt.emitted < rt.limit
}
