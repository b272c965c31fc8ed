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

// Exec evaluates graph patterns over one ring. Like core.Engine it
// owns working state and must not be used concurrently; build one per
// worker.
type Exec struct {
	g *triples.Graph
	r *ring.Ring

	// subjects[p] memoises the planner's one statistic, the number of
	// distinct subjects of completed predicate p, or -1 until first
	// asked (planner.distinctSubjects). It depends only on the ring.
	subjects []int

	// ov is the snapshot's overlay and numNodes its node-id space. Every step's kernel has them attached and decides
	// per step whether the overlay matters. A non-empty ov also
	// switches planning to union mode: every clause (triple patterns
	// included) becomes a pipelined step, so patterns see
	// ring ∪ adds − dels.
	ov       *overlay.Overlay
	numNodes int

	// engines holds one kernel per RPQ pipeline depth (nested path
	// steps each need their own working arrays), each built on first
	// use.
	engines []*core.Engine
	// plans memoises planning by canonical query text (dirtyPlans
	// holds the all-steps union-mode variants): the planner's order
	// search and estimate lookups depend only on the immutable static
	// index, so a long-lived Exec (a service worker) re-running a
	// pattern pays planning once.
	plans      map[string]*Plan
	dirtyPlans map[string]*Plan
}

// maxPlans bounds the per-Exec plan memo and, separately, the
// union-mode memo. On overflow the whole memo is dropped rather than
// tracking recency, mirroring core's compilation memo. 1024 is the
// service's default parse-cache capacity (ExprCacheEntries), so a
// worker's memo holds every pattern the shared parse cache keeps hot;
// at about 0.4 KB a plan, a full memo is about 0.5 MB.
const maxPlans = 1024

// NewExec builds a pattern executor over a single ring.
func NewExec(g *triples.Graph, r *ring.Ring) *Exec {
	subjects := make([]int, g.NumCompletedPreds())
	for p := range subjects {
		subjects[p] = -1
	}
	return &Exec{g: g, r: r, subjects: subjects, ov: overlay.New(), numNodes: r.NumNodes}
}

// SetOverlay points the executor at a snapshot's overlay (not nil) and
// node-id space. Call before Run, under the same one-caller discipline
// as Run itself.
func (x *Exec) SetOverlay(ov *overlay.Overlay, numNodes int) {
	x.ov, x.numNodes = ov, numNodes
}

// dirty reports whether union-mode planning is on: LTJ reads only the
// static ring, so a non-empty overlay plans every clause as a step.
func (x *Exec) dirty() bool { return !x.ov.Empty() }

// ids resolves predicate occurrences against the graph dictionaries.
func (x *Exec) ids(s pathexpr.Sym) (uint32, bool) {
	return x.g.PredID(s.Name, s.Inverse)
}

// evaluatorFor returns the kernel of the given pipeline depth with the
// snapshot's overlay attached.
func (x *Exec) evaluatorFor(depth int) *core.Engine {
	for len(x.engines) <= depth {
		x.engines = append(x.engines, core.NewEngine(x.r, x.ids))
	}
	e := x.engines[depth]
	e.SetDelta(x.ov, x.numNodes)
	return e
}

// Plan resolves and plans q without executing it (explain output and
// planner tests).
func (x *Exec) Plan(q *Query) (*Plan, error) {
	pl, _, err := x.planFor(q, time.Time{}, x.dirty())
	return pl, err
}

// planFor returns the memoised plan of q, planning on first use under
// the given absolute deadline (zero = none); hit is 1 on a memo hit and
// 0 when planned (the plan span's attribute). allSteps plans every
// clause as a pipelined step (union mode bypasses LTJ, which reads
// only the static ring).
func (x *Exec) planFor(q *Query, deadline time.Time, allSteps bool) (pl *Plan, hit int64, err error) {
	memo := &x.plans
	if allSteps {
		memo = &x.dirtyPlans
	}
	key := q.String()
	if pl, ok := (*memo)[key]; ok {
		return pl, 1, nil
	}
	p := &planner{g: x.g, r: x.r, subjects: x.subjects, deadline: deadline}
	if pl, err = p.plan(q, allSteps); err != nil {
		return nil, 0, err
	}
	if *memo == nil || len(*memo) >= maxPlans {
		*memo = make(map[string]*Plan, 16)
	}
	(*memo)[key] = pl
	return pl, 0, nil
}

// Run evaluates q, calling emit for every result row: row[i] is the id
// bound to q.Vars()[i] — a node id, or a completed predicate id for a
// predicate-position variable. Rows are distinct; the slice is reused
// between calls, so emit copies what it keeps, and may return false to
// stop early. Exceeding Options.Timeout returns ErrTimeout with the rows
// emitted so far still valid; Options.Limit truncates silently.
func (x *Exec) Run(q *Query, opts Options, emit func(row []uint32) bool) error {
	// One absolute deadline captured at entry governs planning, LTJ
	// and every RPQ step: planning runs on the clock.
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	psp := opts.Trace.Begin(obs.SpanPlan)
	pl, hit, err := x.planFor(q, deadline, x.dirty())
	opts.Trace.EndVals(psp, hit)
	if err != nil {
		return err
	}
	if pl.Empty {
		return nil
	}
	rt := &run{
		x: x, plan: pl, emit: emit,
		limit:    opts.Limit,
		row:      make([]uint32, len(pl.Vars)),
		bound:    make([]bool, len(pl.Vars)),
		deadline: deadline,
		trace:    opts.Trace,
	}

	if len(pl.Triples) > 0 {
		rem, ok := rt.remaining()
		if !ok {
			return ErrTimeout
		}
		// The join binds its variables for every row it emits.
		for _, s := range pl.joinSlots {
			rt.bound[s] = true
		}
		lopts := ltj.Options{Order: pl.Order, Timeout: rem}
		jsp := rt.trace.Begin(obs.SpanLTJ)
		st, err := ltj.JoinWith(x.r, pl.Triples, lopts, func(vals []uint32) bool {
			for i, s := range pl.joinSlots {
				rt.row[s] = vals[i]
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
	x     *Exec
	plan  *Plan
	emit  func([]uint32) bool
	limit int
	// emitted counts the rows delivered so far.
	emitted int
	// row holds the current values by slot (Plan.Vars) and bound marks
	// the slots bound by the join or an earlier step.
	row      []uint32
	bound    []bool
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

// set binds slot s (if it is a variable's) to v for the duration of a
// continuation; unset undoes it.
func (rt *run) set(s int, v uint32) {
	if s >= 0 {
		rt.row[s], rt.bound[s] = v, true
	}
}

func (rt *run) unset(s int) {
	if s >= 0 {
		rt.bound[s] = false
	}
}

// steps runs the RPQ pipeline from step i under the current row,
// emitting completed rows at the end; false stops the whole
// enumeration (failure, limit, or the caller's emit).
func (rt *run) steps(i int) bool {
	if rt.failure != nil {
		return false
	}
	if i == len(rt.plan.Steps) {
		return rt.emitRow()
	}
	s := &rt.plan.Steps[i]
	if s.PredVar != "" {
		return rt.predVarStep(i, s)
	}
	sid, sBound := rt.resolve(s.sSlot, s.SID)
	oid, oBound := rt.resolve(s.oSlot, s.OID)
	rem, ok := rt.remaining()
	if !ok {
		return false
	}
	eng := rt.x.evaluatorFor(i)
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
	case !sBound && !oBound && s.sSlot == s.oSlot && s.sSlot >= 0:
		// Same unbound variable on both ends: only v→v loops bind it.
		_, err = eng.Eval(context.Background(), cq, copts, func(a, b uint32) bool {
			if a != b {
				return true
			}
			rt.set(s.sSlot, a)
			cont = rt.steps(i + 1)
			rt.unset(s.sSlot)
			return cont
		})
	default:
		// A bound or constant end is fixed in cq, so only the free ends
		// take the pair's values.
		sFree, oFree := -1, -1
		if !sBound {
			sFree = s.sSlot
		}
		if !oBound {
			oFree = s.oSlot
		}
		_, err = eng.Eval(context.Background(), cq, copts, func(a, b uint32) bool {
			rt.set(sFree, a)
			rt.set(oFree, b)
			cont = rt.steps(i + 1)
			rt.unset(sFree)
			rt.unset(oFree)
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
func (rt *run) predVarStep(i int, st *PathStep) bool {
	sid, sBound := rt.resolve(st.sSlot, st.SID)
	oid, oBound := rt.resolve(st.oSlot, st.OID)
	pid, _ := rt.resolve(st.pSlot, core.Variable)
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
		// inconsistent repeats (e.g. ?x ?p ?x) and unwinding after the
		// recursive continuation.
		var added [3]int
		n, okRow := 0, true
		for _, b := range [3]struct {
			slot int
			v    uint32
		}{{st.sSlot, es}, {st.pSlot, ep}, {st.oSlot, eo}} {
			switch {
			case b.slot < 0:
			case rt.bound[b.slot]:
				okRow = okRow && rt.row[b.slot] == b.v
			default:
				rt.set(b.slot, b.v)
				added[n] = b.slot
				n++
			}
		}
		if okRow {
			cont = rt.steps(i + 1)
		}
		for _, s := range added[:n] {
			rt.unset(s)
		}
		return cont
	})
	return cont && rt.failure == nil
}

// eachUnionEdge streams the union edges matching the given constraints
// (core.Variable wildcards), distinct by construction: overlay adds
// are disjoint from the static ring's triples, and tombstoned edges
// are dropped.
func (x *Exec) eachUnionEdge(sid, pid, oid int64, fn func(s, p, o uint32) bool) {
	half := x.g.NumPreds
	inv := func(p uint32) uint32 {
		if p < half {
			return p + half
		}
		return p - half
	}
	inOf := func(o uint32, f func(p, s uint32) bool) bool {
		return core.EachInEdge(x.r, x.ov, o, f)
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
// constant, or a variable (slot ≥ 0) already bound by LTJ or an earlier
// step.
func (rt *run) resolve(slot int, constID int64) (int64, bool) {
	if slot < 0 {
		return constID, constID != core.Variable
	}
	if rt.bound[slot] {
		return int64(rt.row[slot]), true
	}
	return core.Variable, false
}

// emitRow delivers the current row.
func (rt *run) emitRow() bool {
	rt.emitted++
	if !rt.emit(rt.row) {
		return false
	}
	return rt.limit == 0 || rt.emitted < rt.limit
}
