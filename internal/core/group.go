package core

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"time"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// Cross-query shared traversal: concurrent queries over the same ring
// version spend most of their time in the same place — the top levels of
// the L_p and L_s wavelet trees, whose nodes every root-to-leaf descent
// crosses. The frontier-batched traversal (batch.go) already amortises
// those levels across one query's frontier; EvalGroup lifts the same
// idea one level up and amortises them across queries. Each member's
// frontier level becomes tagged range items (wavelet.RangeMask.Tag holds
// the member index, keeping items from coalescing across queries), all
// members' items merge into one sorted list, and the whole group's level
// runs as a single multi-range descent per wavelet tree. Pruning stays
// exact and per member: part-1 items consult the owning member's
// compiled B[v] array, part-2 items the owning member's D[v] marks, so
// every member visits exactly the product subgraph it would have visited
// alone — only the shared top-of-tree node traversals are paid once
// instead of K times.
//
// Members must be groupable: a single fixed endpoint (the (s,E,y) shape
// is normalised to (x,Ê,s) exactly as in dispatch), a ≤64-state
// automaton, and the default batched/compiled configuration, on a
// kernel over one ring with no delta (the shared descent walks that
// ring's two trees). Everything else — both-variable, both-const, wide,
// unbatched or interpreter-forced evaluations, and every member on a
// multi-ring or overlaid kernel — falls back to a solo Eval within the
// same call, so callers can hand over any mix.
//
// Accounting: ProductNodes, ProductEdges and Results are exact per
// member. WaveletVisits is only partially attributable — internal nodes
// are genuinely shared — so grouped evaluations count leaf visits per
// member and do not charge anyone for the shared internal nodes.

// GroupQuery is one member of an EvalGroup call: a query plus its
// options and emit callback, with the per-member outcome filled in on
// return.
type GroupQuery struct {
	Query Query
	Opts  Options
	Emit  EmitFunc

	// Stats and Err are the member's evaluation outcome, exactly as the
	// corresponding Eval would have returned them.
	Stats Stats
	Err   error
}

// groupMember is the in-flight state of one groupable query.
type groupMember struct {
	gq *GroupQuery

	o              uint32 // the fixed endpoint, traversal start
	swap           bool   // (s,E,y) members report (o, r) instead of (r, o)
	eng            *glushkovEngine
	negFwd, negInv uint64

	dNode    *lazy.MaskArray
	queue    []queueItem
	deadline time.Time
	limit    int

	done bool
	err  error
}

// glushkovEngine bundles the member's compiled stepping state. (A named
// struct keeps groupMember readable; all fields come from one
// compiledAutomaton.)
type glushkovEngine struct {
	init, final uint64
	nullable    bool
	st          glushkov.Stepper
	bArr        []uint64
}

// EvalGroup evaluates qs cooperatively: groupable members run lockstep
// level-synchronous BFS with one shared multi-range wavelet descent per
// level and tree, the rest run solo Eval calls within this invocation.
// Each member's Stats and Err are filled in before EvalGroup returns.
// Like Eval, EvalGroup must not run concurrently on one Engine.
func (e *Engine) EvalGroup(qs []*GroupQuery) {
	// Group members compile eagerly: sharing a descent requires the
	// precomputed B[v] arrays, and a query worth grouping is worth
	// compiling.
	e.eager = true
	e.noCompile = false

	var members []*groupMember
	for _, gq := range qs {
		if m, ok := e.groupable(gq); ok {
			members = append(members, m)
		} else {
			gq.Stats, gq.Err = e.Eval(context.Background(), gq.Query, gq.Opts, gq.Emit)
		}
	}
	switch len(members) {
	case 0:
		return
	case 1:
		// A group of one gains nothing; run the plain evaluation.
		gq := members[0].gq
		gq.Stats, gq.Err = e.Eval(context.Background(), gq.Query, gq.Opts, gq.Emit)
		return
	}
	g := &TraversalGroup{e: e, members: members}
	g.run()
}

// TraversalGroup is the in-flight state of one shared traversal: the
// kernel whose ring and scratch buffers it borrows plus the lockstep
// members. It extends wavelet.TraverseMany one level up — TraverseMany
// shares a descent across one frontier's ranges; the group shares it
// across whole queries' frontiers.
type TraversalGroup struct {
	e       *Engine
	members []*groupMember
}

// groupable decides whether gq can join the shared traversal and, if
// so, builds its member state (compiling the expression eagerly).
func (e *Engine) groupable(gq *GroupQuery) (*groupMember, bool) {
	opts := gq.Opts
	if len(e.work) != 1 || e.ov != Delta(noDelta{}) ||
		opts.DisableBatching || opts.DisableCompiled {
		return nil, false
	}
	q := gq.Query
	var expr pathexpr.Node
	var o uint32
	var swap bool
	switch {
	case q.Object != Variable && q.Subject == Variable:
		expr, o = q.Expr, uint32(q.Object)
	case q.Subject != Variable && q.Object == Variable:
		// (s, E, y) ≡ (y, Ê, s), §4.4.
		expr, o, swap = pathexpr.InverseOf(q.Expr), uint32(q.Subject), true
	default:
		// Both-variable and both-const shapes keep their special
		// orchestration (fast paths, two-phase, early stop).
		return nil, false
	}
	ca := e.compile(expr)
	if ca.eng == nil || ca.st == nil {
		return nil, false // wide automaton: interpreter-only
	}
	negFwd, negInv := ca.eng.NegClassBits()
	m := &groupMember{
		gq:   gq,
		o:    o,
		swap: swap,
		eng: &glushkovEngine{
			init:     ca.eng.Init,
			final:    ca.eng.F,
			nullable: ca.eng.A.Nullable,
			st:       ca.st,
			bArr:     ca.bArrs[0],
		},
		negFwd: negFwd,
		negInv: negInv,
		limit:  opts.Limit,
	}
	if opts.Timeout > 0 {
		m.deadline = time.Now().Add(opts.Timeout)
	}
	return m, true
}

// emit reports one result for m, honouring swap and the member's limit.
// It returns false when the member should stop.
func (m *groupMember) emit(r uint32) bool {
	m.gq.Stats.Results++
	a, b := r, m.o
	if m.swap {
		a, b = m.o, r
	}
	if !m.gq.Emit(a, b) {
		return false
	}
	return m.limit == 0 || m.gq.Stats.Results < m.limit
}

// getGroupD pops a pooled L_s mask array (the member's D[v] marks).
func (e *Engine) getGroupD() *lazy.MaskArray {
	if n := len(e.groupD); n > 0 {
		d := e.groupD[n-1]
		e.groupD = e.groupD[:n-1]
		return d
	}
	return lazy.NewMaskArray(e.work[0].r.Ls.NumNodes())
}

func (e *Engine) putGroupD(d *lazy.MaskArray) {
	d.Reset()
	e.groupD = append(e.groupD, d)
}

// run drives the lockstep BFS over the live members.
func (g *TraversalGroup) run() {
	e, ms := g.e, g.members
	w := e.work[0] // groupable: the kernel's one ring
	// Seed each member exactly as evalToConst would.
	for _, m := range ms {
		m.dNode = e.getGroupD()
		for _, id := range w.lsPads {
			m.dNode.Set(int(id), ^uint64(0))
		}
		if int(m.o) >= w.r.NumNodes {
			m.done = true
			continue
		}
		if m.eng.nullable && !m.emit(m.o) {
			m.done = true
			continue
		}
		markSubjectOn(m.dNode, w.r.Ls.LeafID(m.o), m.eng.final)
		m.queue = append(m.queue, queueItem{m.o, m.eng.final})
	}

	// The group deadline probe: one amortised clock read covers every
	// member; members past their own deadline finish with ErrTimeout
	// while the rest keep going. It reports an error only when nobody is
	// left, aborting the remaining descent.
	steps := 0
	probe := func() error {
		steps++
		if steps%64 != 0 {
			return nil
		}
		now := time.Time{}
		live := 0
		for _, m := range ms {
			if m.done {
				continue
			}
			if !m.deadline.IsZero() {
				if now.IsZero() {
					now = time.Now()
				}
				if now.After(m.deadline) {
					m.done = true
					m.err = ErrTimeout
					continue
				}
			}
			live++
		}
		if live == 0 {
			return ErrTimeout
		}
		return nil
	}

	half := e.numPreds / 2
	for {
		// Merge the members' frontiers into one tagged, sorted item list.
		e.lpItems = e.lpItems[:0]
		for tag, m := range ms {
			if m.done || len(m.queue) == 0 {
				continue
			}
			e.appendMemberItems(m, uint32(tag))
		}
		if len(e.lpItems) == 0 {
			break
		}
		slices.SortFunc(e.lpItems, func(a, b wavelet.RangeMask) int { return cmp.Compare(a.B, b.B) })

		// Part 1: one descent of L_p for the whole group's level.
		e.lsItems = e.lsItems[:0]
		var failure error
		w.r.Lp.TraverseMany(e.lpItems, func(node wavelet.NodeID, leaf bool, p uint32, its []wavelet.RangeMask) int {
			if failure != nil {
				return 0
			}
			if !leaf {
				k := 0
				for _, it := range its {
					m := ms[it.Tag]
					if m.done {
						continue
					}
					if it.Mask&m.eng.bArr[node] == 0 {
						if m.negFwd|m.negInv == 0 {
							continue
						}
						lo, hi := w.r.Lp.SymRange(node)
						var cb uint64
						if lo < half {
							cb |= m.negFwd
						}
						if hi > half {
							cb |= m.negInv
						}
						if it.Mask&cb == 0 {
							continue
						}
					}
					its[k] = it
					k++
				}
				return k
			}
			if err := probe(); err != nil {
				failure = err
				return 0
			}
			cp := w.r.Cp[p]
			for _, it := range its {
				m := ms[it.Tag]
				if m.done {
					continue
				}
				m.gq.Stats.WaveletVisits++
				bp := m.eng.st.PredMask(p)
				d := it.Mask & bp
				if d == 0 {
					continue
				}
				m.gq.Stats.ProductEdges++
				d2 := m.eng.st.StepBack(d)
				if d2 == 0 {
					continue
				}
				b, end := cp+it.B, cp+it.E
				if n := len(e.lsItems); n > 0 && e.lsItems[n-1].E == b &&
					e.lsItems[n-1].Mask == d2 && e.lsItems[n-1].Tag == it.Tag {
					e.lsItems[n-1].E = end
					continue
				}
				e.lsItems = append(e.lsItems, wavelet.RangeMask{B: b, E: end, Mask: d2, Tag: it.Tag})
			}
			return 0
		})
		if failure != nil || len(e.lsItems) == 0 {
			if failure != nil {
				break
			}
			continue
		}

		// Part 2: one descent of L_s; D[v] pruning per item against the
		// owning member's marks.
		slices.SortFunc(e.lsItems, func(a, b wavelet.RangeMask) int { return cmp.Compare(a.B, b.B) })
		w.r.Ls.TraverseMany(e.lsItems, func(node wavelet.NodeID, leaf bool, s uint32, its []wavelet.RangeMask) int {
			if failure != nil {
				return 0
			}
			if !leaf {
				k := 0
				for _, it := range its {
					m := ms[it.Tag]
					if m.done || it.Mask&^m.dNode.Get(int(node)) == 0 {
						continue
					}
					its[k] = it
					k++
				}
				return k
			}
			if err := probe(); err != nil {
				failure = err
				return 0
			}
			// Same-member items at one leaf dedup through the marks: the
			// first marks the subject, the rest see it visited.
			for _, it := range its {
				m := ms[it.Tag]
				if m.done {
					continue
				}
				m.gq.Stats.WaveletVisits++
				fresh := it.Mask &^ m.dNode.Get(int(node))
				if fresh == 0 {
					continue
				}
				m.gq.Stats.ProductNodes++
				markSubjectOn(m.dNode, node, it.Mask)
				if fresh&m.eng.init != 0 {
					if !m.emit(s) {
						m.done = true
						continue
					}
					fresh &^= m.eng.init
				}
				if fresh != 0 && w.r.Co[s+1] > w.r.Co[s] {
					m.queue = append(m.queue, queueItem{s, fresh})
				}
			}
			return 0
		})
		if failure != nil {
			break
		}
	}

	for _, m := range ms {
		e.putGroupD(m.dNode)
		m.gq.Err = m.err
		if errors.Is(m.gq.Err, errLimit) {
			m.gq.Err = nil
		}
	}
	e.lpItems = e.lpItems[:0]
	e.lsItems = e.lsItems[:0]
}

// appendMemberItems drains m's frontier into e.lpItems as sorted
// disjoint L_p ranges tagged with the member index.
func (e *Engine) appendMemberItems(m *groupMember, tag uint32) {
	e.lpItems = appendRangeItems(e.lpItems, e.work[0].r, mergeFrontier(m.queue), tag)
	m.queue = m.queue[:0]
}
