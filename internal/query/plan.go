package query

import (
	"errors"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/ltj"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
)

// ErrUnsupportedOrder re-exports the LTJ error for callers that only
// import this package.
var ErrUnsupportedOrder = ltj.ErrUnsupportedOrder

// Plan is the selectivity-ordered execution strategy for one pattern:
// the BGP core as LTJ patterns under a fixed variable order, and the
// RPQ clauses as a scheduled sequence of bound-endpoint path steps.
type Plan struct {
	// Triples is the BGP core, resolved to completed ids and oriented
	// for Order: a constant-predicate pattern whose object variable is
	// bound before its subject variable is stored in its inverse-predicate
	// form (?o ^p ?s), and Inverted marks it.
	Triples  []ltj.Pattern
	Inverted []bool
	// Order is the LTJ variable order (BGP variables only), and
	// Rotations the walk ltj assigns each stored triple under it.
	Order     []string
	Rotations []string
	// Steps are the RPQ clauses in execution order.
	Steps []PathStep
	// Empty marks a pattern with a constant absent from the graph: the
	// result set is empty without any evaluation.
	Empty bool
	// VarEst records the planner's per-variable candidate-set estimates,
	// constant-anchored where a triple pattern pins the variable's two
	// neighbours (for tests and explain output).
	VarEst map[string]float64
	// Vars numbers the pattern's variables: they are the query's Vars,
	// and slot i of every row Exec.Run emits holds Vars[i]'s value.
	Vars []string

	// joinSlots[i] is the row slot of Order[i].
	joinSlots []int
}

// PathStep is one scheduled RPQ clause — or, in the union-mode
// all-steps plan, any clause, including triple patterns.
type PathStep struct {
	// Expr is the clause's path expression (nil when PredVar is set).
	Expr pathexpr.Node
	// PredVar names a variable predicate: the step enumerates union
	// edges instead of running the RPQ engine (all-steps plans only).
	PredVar string
	// SVar/OVar name variable endpoints ("" = constant endpoint).
	SVar, OVar string
	// SID/OID are constant endpoint ids (core.Variable for variables).
	SID, OID int64
	// Est is the planner's cost estimate for the step at schedule time.
	Est float64

	// sSlot, oSlot and pSlot are the row slots of SVar, OVar and PredVar
	// (-1 for a constant endpoint or a constant path).
	sSlot, oSlot, pSlot int
}

// planner carries the inputs of one planning pass.
type planner struct {
	g        *triples.Graph
	r        *ring.Ring
	subjects []int     // the Exec's distinct-subject memo
	deadline time.Time // absolute query deadline; zero = none
}

// plan resolves and orders q. A nil error with Empty set means the
// query provably has no results. With allSteps set, every clause —
// triple patterns included — is scheduled as a pipelined step (union
// mode: LTJ reads only the static ring, so it is bypassed). Planning
// honours the deadline: an order search that variable predicates make
// backtrack returns ErrTimeout instead of running off the clock.
func (p *planner) plan(q *Query, allSteps bool) (*Plan, error) {
	pl := &Plan{VarEst: map[string]float64{}}
	var paths []Clause
	for _, c := range q.Clauses {
		if !allSteps && c.IsTriple() {
			pat, ok := p.resolveTriple(c)
			if !ok {
				pl.Empty = true
				return pl, nil
			}
			pl.Triples = append(pl.Triples, pat)
		} else {
			paths = append(paths, c)
		}
	}

	// Per-variable candidate-set estimates over all clauses.
	est := p.estimates(q)
	pl.VarEst = est

	// LTJ variable order: ltj's search over the estimates, lowered to the
	// exact counts the ring gives for constant-anchored variables.
	if len(pl.Triples) > 0 {
		for v, e := range ltj.Estimates(p.r, pl.Triples) {
			if e < est[v] {
				est[v] = e
			}
		}
		order, err := ltj.ChooseOrder(pl.Triples, est, p.deadline)
		if errors.Is(err, ltj.ErrTimeout) {
			return nil, core.ErrTimeout
		}
		if err != nil {
			return nil, err
		}
		pl.Order = order
		pl.Inverted = orient(p.g, p.r, pl.Triples, order)
		pl.Rotations, _ = ltj.Rotations(pl.Triples, order)
	}

	// RPQ schedule: greedily run clauses whose endpoints are already
	// bound (existence checks first, then the cheapest expansion);
	// disconnected clauses last.
	bound := map[string]bool{}
	for _, pat := range pl.Triples {
		for _, t := range []ltj.Term{pat.S, pat.P, pat.O} {
			if t.Var != "" {
				bound[t.Var] = true
			}
		}
	}
	remaining := append([]Clause(nil), paths...)
	for len(remaining) > 0 {
		best, bestCost := -1, 0.0
		for i, c := range remaining {
			cost, ok := p.stepCost(c, bound, est)
			if !ok {
				continue
			}
			if best == -1 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best == -1 {
			// No clause touches the bound set: a disconnected component.
			// Pick the cheapest full scan and continue from there.
			for i, c := range remaining {
				cost := p.scanCost(c, est)
				if best == -1 || cost < bestCost {
					best, bestCost = i, cost
				}
			}
		}
		c := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		step, ok := p.resolveStep(c, bestCost)
		if !ok {
			pl.Empty = true
			return pl, nil
		}
		pl.Steps = append(pl.Steps, step)
		if c.S.IsVar() {
			bound[c.S.Var] = true
		}
		if c.O.IsVar() {
			bound[c.O.Var] = true
		}
		if c.PredVar != "" {
			bound[c.PredVar] = true
		}
	}
	pl.number(q)
	return pl, nil
}

// number assigns the row slots: one per variable of q, in order of
// first appearance.
func (pl *Plan) number(q *Query) {
	pl.Vars = q.Vars()
	slots := make(map[string]int, len(pl.Vars))
	for i, v := range pl.Vars {
		slots[v] = i
	}
	slot := func(v string) int {
		if v == "" {
			return -1
		}
		return slots[v]
	}
	pl.joinSlots = make([]int, len(pl.Order))
	for i, v := range pl.Order {
		pl.joinSlots[i] = slot(v)
	}
	for i := range pl.Steps {
		st := &pl.Steps[i]
		st.sSlot, st.oSlot, st.pSlot = slot(st.SVar), slot(st.OVar), slot(st.PredVar)
	}
}

// resolveTriple maps a triple-pattern clause to LTJ terms; false means
// a constant is absent from the graph (empty result).
func (p *planner) resolveTriple(c Clause) (ltj.Pattern, bool) {
	var pat ltj.Pattern
	var ok bool
	if pat.S, ok = p.resolveNodeTerm(c.S); !ok {
		return pat, false
	}
	if pat.O, ok = p.resolveNodeTerm(c.O); !ok {
		return pat, false
	}
	if c.PredVar != "" {
		pat.P = ltj.V(c.PredVar)
		return pat, true
	}
	sym, _ := c.TripleSym()
	id, found := p.g.PredID(sym.Name, sym.Inverse)
	if !found {
		return pat, false
	}
	pat.P = ltj.C(id)
	return pat, true
}

func (p *planner) resolveNodeTerm(t Term) (ltj.Term, bool) {
	if t.IsVar() {
		return ltj.V(t.Var), true
	}
	id, ok := p.g.Nodes.Lookup(t.Name)
	if !ok {
		return ltj.Term{}, false
	}
	return ltj.C(id), true
}

// resolveStep maps an RPQ clause — or, in all-steps plans, any clause
// — to a PathStep; false means a constant endpoint is absent from the
// graph.
func (p *planner) resolveStep(c Clause, cost float64) (PathStep, bool) {
	step := PathStep{Expr: c.Path, PredVar: c.PredVar, SID: core.Variable, OID: core.Variable, Est: cost}
	if c.S.IsVar() {
		step.SVar = c.S.Var
	} else {
		id, ok := p.g.Nodes.Lookup(c.S.Name)
		if !ok {
			return step, false
		}
		step.SID = int64(id)
	}
	if c.O.IsVar() {
		step.OVar = c.O.Var
	} else {
		id, ok := p.g.Nodes.Lookup(c.O.Name)
		if !ok {
			return step, false
		}
		step.OID = int64(id)
	}
	return step, true
}

// stepCost scores running clause c now, given the bound variables:
// 0 for a pure existence check, the unbound side's expansion estimate
// otherwise; false when no endpoint is bound or constant yet.
func (p *planner) stepCost(c Clause, bound map[string]bool, est map[string]float64) (float64, bool) {
	sBound := !c.S.IsVar() || bound[c.S.Var]
	oBound := !c.O.IsVar() || bound[c.O.Var]
	switch {
	case sBound && oBound:
		return 0, true
	case sBound:
		return est[c.O.Var], true
	case oBound:
		return est[c.S.Var], true
	default:
		return 0, false
	}
}

// scanCost scores a full unbound evaluation of clause c.
func (p *planner) scanCost(c Clause, est map[string]float64) float64 {
	cost := float64(p.r.N)
	if c.S.IsVar() {
		if e, ok := est[c.S.Var]; ok && e < cost {
			cost = e
		}
	}
	if c.O.IsVar() {
		if e, ok := est[c.O.Var]; ok && e < cost {
			cost = e
		}
	}
	return cost * 2 // disfavour full scans over bound expansions
}

// orient rewrites, in place, every constant-predicate pattern whose
// object variable the order binds before its subject variable into the
// equivalent (?o ^p ?s): the ring indexes the completed graph, and the
// inverse form's p→s→o walk starts from ^p's range where the original's
// o→p→s walk starts from every node. The flip needs ^p's triples in the
// routed ring (a partitioner that splits p from ^p leaves the slow walk
// in place). It reports which patterns it flipped.
func orient(g *triples.Graph, r *ring.Ring, pats []ltj.Pattern, order []string) []bool {
	pos := make(map[string]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	flipped := make([]bool, len(pats))
	for i, pat := range pats {
		if pat.P.Var != "" || pat.S.Var == "" || pat.O.Var == "" || pos[pat.O.Var] >= pos[pat.S.Var] {
			continue
		}
		inv := g.Inverse(pat.P.Const)
		if b, e := r.PredRange(inv); b < e {
			pats[i] = ltj.Pattern{S: pat.O, P: ltj.C(inv), O: pat.S}
			flipped[i] = true
		}
	}
	return flipped
}

// estimates computes a per-variable candidate-set size: the minimum,
// over the clauses mentioning the variable, of how many distinct values
// that clause alone admits, counted on the ring (distinctSubjects).
func (p *planner) estimates(q *Query) map[string]float64 {
	est := map[string]float64{}
	note := func(v string, e float64) {
		if v == "" {
			return
		}
		if cur, ok := est[v]; !ok || e < cur {
			est[v] = e
		}
	}
	n := float64(p.r.N)
	for _, c := range q.Clauses {
		if c.PredVar != "" {
			note(c.PredVar, float64(p.r.NumPreds))
			note(c.S.Var, n)
			note(c.O.Var, n)
			continue
		}
		if sym, ok := c.TripleSym(); ok {
			id, found := p.g.PredID(sym.Name, sym.Inverse)
			if !found {
				note(c.S.Var, 0)
				note(c.O.Var, 0)
				continue
			}
			note(c.S.Var, float64(p.distinctSubjects(id)))
			note(c.O.Var, float64(p.distinctObjects(id)))
			continue
		}
		// RPQ clause: a matching path leaves the subject on one of the
		// expression's first predicates and enters the object on one of
		// its last; nullable expressions admit every node. The object
		// end uses the reversed expression, whose first syms are
		// already inverted — their distinct sources are exactly the
		// distinct targets of the original boundary predicates.
		if nullable(c.Path) {
			note(c.S.Var, float64(p.r.NumNodes))
			note(c.O.Var, float64(p.r.NumNodes))
			continue
		}
		note(c.S.Var, p.boundaryEstimate(firstSyms(c.Path)))
		note(c.O.Var, p.boundaryEstimate(firstSyms(pathexpr.InverseOf(c.Path))))
	}
	return est
}

// boundaryEstimate sums the distinct-source counts of the boundary
// predicates. A nil sym list (a negated property set on the boundary)
// is unknown and estimates the full triple count.
func (p *planner) boundaryEstimate(syms []pathexpr.Sym) float64 {
	if syms == nil {
		return float64(p.r.N)
	}
	total := 0.0
	for _, s := range syms {
		id, ok := p.g.PredID(s.Name, s.Inverse)
		if !ok {
			continue // unknown predicate: matches nothing
		}
		total += float64(p.distinctSubjects(id))
	}
	if max := float64(p.r.N); total > max {
		return max
	}
	return total
}

// distinctSubjects counts the distinct sources of predicate id: the
// distinct symbols of L_s over its range, which one
// wavelet.RangeDistinct descent enumerates. The first ask on an Exec
// counts; later ones read its memo.
func (p *planner) distinctSubjects(id uint32) int {
	if n := p.subjects[id]; n >= 0 {
		return n
	}
	b, e := p.r.PredRange(id)
	n := 0
	wavelet.RangeDistinct(p.r.Ls, b, e, func(uint32, int, int) bool {
		n++
		return true
	})
	p.subjects[id] = n
	return n
}

// distinctObjects counts distinct targets of predicate id — the
// distinct sources of its inverse in the completed graph.
func (p *planner) distinctObjects(id uint32) int {
	return p.distinctSubjects(p.g.Inverse(id))
}

// nullable reports whether the expression matches the empty path.
func nullable(n pathexpr.Node) bool {
	switch x := n.(type) {
	case pathexpr.Sym, pathexpr.NegSet:
		return false
	case pathexpr.Eps:
		return true
	case pathexpr.Concat:
		return nullable(x.L) && nullable(x.R)
	case pathexpr.Alt:
		return nullable(x.L) || nullable(x.R)
	case pathexpr.Star, pathexpr.Opt:
		return true
	case pathexpr.Plus:
		return nullable(x.X)
	default:
		return false
	}
}

// firstSyms returns the predicate occurrences that can start a matching
// path, or nil when a negated property set makes the boundary unknown.
func firstSyms(n pathexpr.Node) []pathexpr.Sym {
	switch x := n.(type) {
	case pathexpr.Sym:
		return []pathexpr.Sym{x}
	case pathexpr.NegSet:
		return nil
	case pathexpr.Eps:
		return []pathexpr.Sym{}
	case pathexpr.Concat:
		l := firstSyms(x.L)
		if l == nil {
			return nil
		}
		if !nullable(x.L) {
			return l
		}
		r := firstSyms(x.R)
		if r == nil {
			return nil
		}
		return append(append([]pathexpr.Sym{}, l...), r...)
	case pathexpr.Alt:
		l, r := firstSyms(x.L), firstSyms(x.R)
		if l == nil || r == nil {
			return nil
		}
		return append(append([]pathexpr.Sym{}, l...), r...)
	case pathexpr.Star:
		return firstSyms(x.X)
	case pathexpr.Plus:
		return firstSyms(x.X)
	case pathexpr.Opt:
		return firstSyms(x.X)
	default:
		return nil
	}
}
