// Package ltj implements Leapfrog Triejoin over the ring — the
// worst-case-optimal multijoin algorithm the ring was originally built
// for (Arroyuelo et al., SIGMOD'21), and the integration point the RPQ
// paper's conclusion (§6) sketches for mixing RPQs into basic graph
// patterns.
//
// Each triple pattern is evaluated by walking the ring's LF cycle: a
// pattern binds its components in a rotation of (s → o → p), narrowing a
// range of one BWT sequence per step with backward search. The values
// available for the next component are exactly the distinct symbols of
// the current range, which the wavelet matrix enumerates — and, for
// leapfrog, seeks with MinAtLeast in O(log σ). A join picks one global
// variable order and intersects, per variable, the candidate streams of
// all patterns where that variable is next. A variable only one
// pattern's range constrains has nothing to intersect: its level walks
// that range's distinct symbols in one depth-first descent
// (wavelet.RangeDistinct, §3.5), and each symbol's occurrence ranks are
// already the pattern's next range, so binding it costs no backward
// search.
//
// A single ring supports the three rotations of (s, o, p); among those
// a variable order admits, a pattern takes the one with the most
// leading constants, so its first variable starts from a narrowed range
// instead of the whole alphabet. Patterns whose variables would need a
// different binding order are rejected (the SIGMOD paper adds a second,
// reversed ring for full generality).
package ltj

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ringrpq/internal/core"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// ErrUnsupportedOrder reports that no single-ring variable order exists
// for the given patterns (the SIGMOD paper adds a second, reversed ring
// for full generality).
var ErrUnsupportedOrder = errors.New("ltj: no single-ring variable order for these patterns")

// Options tune one join evaluation (core.Options-style).
type Options struct {
	// Order fixes the global variable order instead of letting the join
	// search for one — the hook the query planner uses to impose its
	// selectivity-driven order. It must be a permutation of the
	// patterns' variables; JoinWith returns ErrUnsupportedOrder when no
	// rotation assignment fits it.
	Order []string
	// Limit caps the number of emitted rows; 0 means unlimited.
	Limit int
}

// Term is one position of a triple pattern: a constant symbol or a
// variable name.
type Term struct {
	// Const holds the symbol when Var is empty.
	Const uint32
	// Var names the variable; empty means constant.
	Var string
}

// C makes a constant term.
func C(v uint32) Term { return Term{Const: v} }

// V makes a variable term.
func V(name string) Term { return Term{Var: name} }

// Pattern is a triple pattern (S, P, O) over completed predicate ids and
// node ids.
type Pattern struct {
	S, P, O Term
}

// axis identifies a triple component; the ring's LF cycle visits them in
// the order s → o → p → s.
type axis int

const (
	axS axis = iota
	axO
	axP
)

// rotationNames renders a rotation by its starting axis.
var rotationNames = [3]string{axS: "s→o→p", axO: "o→p→s", axP: "p→s→o"}

// next follows the LF cycle.
func (a axis) next() axis { return (a + 1) % 3 }

func (p Pattern) term(a axis) Term {
	switch a {
	case axS:
		return p.S
	case axO:
		return p.O
	default:
		return p.P
	}
}

// Stats counts the work of one join: rows emitted; candidates produced
// (Seeks: one per leapfrog seek over a candidate stream and one per
// symbol an enumerating level's descent yields); and range-narrowing
// steps (Binds: backward searches, C-array jumps and the ranks an
// enumerated symbol comes with).
type Stats struct {
	Rows, Seeks, Binds int64
}

// JoinWith evaluates the natural join of the patterns on r, without
// allocating per row, under evaluation options: a caller-fixed variable
// order and a row limit. emit receives the row as a slice indexed by
// order position — Options.Order, or ChooseOrder's result over
// Estimates when that is nil — which is reused between calls; emit
// returning false stops the enumeration. ctx bounds the join, order
// search included, as it bounds an RPQ evaluation (core.Budget): a
// passed deadline returns core.ErrTimeout and a cancellation ctx.Err(),
// with the rows emitted so far valid; the limit truncates silently
// (nil error), mirroring the RPQ engine's contract.
func JoinWith(ctx context.Context, r *ring.Ring, patterns []Pattern, opts Options, emit func(row []uint32) bool) (Stats, error) {
	if len(patterns) == 0 {
		return Stats{}, nil
	}
	order := opts.Order
	if order == nil {
		var err error
		if order, err = ChooseOrder(ctx, patterns, Estimates(r, patterns)); err != nil {
			return Stats{}, err
		}
	} else if vars := Vars(patterns); !sameVars(order, vars) {
		return Stats{}, fmt.Errorf("ltj: order %v is not a permutation of the pattern variables %v", order, vars)
	}
	rots, ok := rotations(patterns, order)
	if !ok {
		return Stats{}, ErrUnsupportedOrder
	}
	j := newJoiner(r, patterns, order, rots)
	j.emit, j.limit, j.budget = emit, int64(opts.Limit), core.NewBudget(ctx, 0)
	for i := range j.lead {
		if !j.apply(&j.lead[i], 0) {
			return j.stats, nil
		}
	}
	j.run(0)
	return j.stats, j.failure
}

// sameVars reports whether order is a permutation of the sorted vars.
func sameVars(order, vars []string) bool {
	s := append([]string(nil), order...)
	sort.Strings(s)
	if len(s) != len(vars) {
		return false
	}
	for i := range s {
		if s[i] != vars[i] {
			return false
		}
	}
	return true
}

// Feasible reports whether the patterns admit rotations compatible with
// the given global variable order. A variable absent from order counts
// as bound after every listed one, so a prefix of an order is feasible
// exactly when some completion of it may be.
func Feasible(patterns []Pattern, order []string) bool {
	_, ok := rotations(patterns, order)
	return ok
}

// Rotations names the rotation each pattern walks under the order
// ("s→o→p", "o→p→s" or "p→s→o"); false means the order is infeasible.
func Rotations(patterns []Pattern, order []string) ([]string, bool) {
	rots, ok := rotations(patterns, order)
	if !ok {
		return nil, false
	}
	names := make([]string, len(rots))
	for i, a := range rots {
		names[i] = rotationNames[a]
	}
	return names, true
}

// Vars returns the variables of the patterns, sorted.
func Vars(patterns []Pattern) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range patterns {
		for _, t := range [3]Term{p.S, p.P, p.O} {
			if t.Var != "" && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Estimates bounds, per variable, the candidates its cheapest pattern
// admits, read off the ring alone: the exact count for a pattern whose
// other two components are constants (the size of the range two
// backward steps leave), the predicate's triple count for a
// constant-predicate pattern with two variables, and the alphabet size
// otherwise.
func Estimates(r *ring.Ring, patterns []Pattern) map[string]float64 {
	est := map[string]float64{}
	note := func(t Term, n int) {
		if cur, ok := est[t.Var]; t.Var != "" && (!ok || float64(n) < cur) {
			est[t.Var] = float64(n)
		}
	}
	// walk binds the constants of the given components in turn, as a
	// join would, and returns the size of the range they leave.
	j := &joiner{r: r, states: make([]state, 1)}
	walk := func(p Pattern, axes ...axis) int {
		j.states[0] = state{-1, -1}
		for _, a := range axes {
			if !j.bind(0, a, p.term(a).Const) {
				return 0
			}
		}
		return j.states[0].e - j.states[0].b
	}
	for _, p := range patterns {
		sC, pC, oC := p.S.Var == "", p.P.Var == "", p.O.Var == ""
		switch {
		case pC && oC:
			note(p.S, walk(p, axO, axP))
		case pC && sC:
			note(p.O, walk(p, axP, axS))
		case sC && oC:
			note(p.P, walk(p, axS, axO))
		case pC:
			n := walk(p, axP)
			note(p.S, n)
			note(p.O, n)
		default:
			note(p.S, r.NumNodes)
			note(p.O, r.NumNodes)
			note(p.P, int(r.NumPreds))
		}
	}
	return est
}

// ChooseOrder searches a global variable order for the patterns, depth
// first: at each depth the unbound variables are tried cheapest first —
// those sharing a pattern with a bound variable before unconnected
// ones, then by est (a missing entry counts as 0), then by name — a
// prefix no rotation assignment can extend is pruned, and the first
// complete order is returned. Constant-predicate patterns fit every
// order, so the search never backtracks on them; variable predicates
// can make it exponential, hence the probe of ctx at every step (a
// passed deadline returns core.ErrTimeout, a cancellation ctx.Err()).
// ErrUnsupportedOrder means no order
// is feasible. With a caller-fixed order there is nothing to search:
// JoinWith asks rotations for that order alone.
func ChooseOrder(ctx context.Context, patterns []Pattern, est map[string]float64) ([]string, error) {
	budget := core.NewBudget(ctx, 0)
	vars := Vars(patterns)
	order := make([]string, 0, len(vars))
	bound := make(map[string]bool, len(vars))
	connected := func(v string) bool {
		for _, p := range patterns {
			if (p.S.Var == v || p.P.Var == v || p.O.Var == v) &&
				(bound[p.S.Var] || bound[p.P.Var] || bound[p.O.Var]) {
				return true
			}
		}
		return false
	}
	var stopped error
	var rec func() bool
	rec = func() bool {
		if len(order) == len(vars) {
			return true
		}
		if stopped = budget.Check(); stopped != nil {
			return false
		}
		var cands []string
		conn := map[string]bool{}
		for _, v := range vars {
			if !bound[v] {
				cands = append(cands, v)
				conn[v] = connected(v)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			va, vb := cands[a], cands[b]
			if conn[va] != conn[vb] {
				return conn[va]
			}
			return est[va] < est[vb]
		})
		for _, v := range cands {
			order = append(order, v)
			bound[v] = true
			if Feasible(patterns, order) && rec() {
				return true
			}
			bound[v] = false
			order = order[:len(order)-1]
			if stopped != nil {
				return false
			}
		}
		return false
	}
	switch {
	case rec():
		return order, nil
	case stopped != nil:
		return nil, stopped
	default:
		return nil, ErrUnsupportedOrder
	}
}

// positions indexes an order by variable.
func positions(order []string) map[string]int {
	pos := make(map[string]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	return pos
}

// rotations assigns every pattern the rotation whose variables appear in
// order and that starts with the most constants; false means some
// pattern has no order-compatible rotation. Variables absent from order
// count as bound after all listed ones.
func rotations(patterns []Pattern, order []string) ([]axis, bool) {
	pos := positions(order)
	rots := make([]axis, len(patterns))
	for i, p := range patterns {
		best := -1
		for _, start := range [3]axis{axS, axO, axP} {
			last, lead, ok := -1, 0, true
			a := start
			for k := 0; k < 3 && ok; k++ {
				if t := p.term(a); t.Var == "" {
					if lead == k {
						lead++
					}
				} else {
					at, listed := pos[t.Var]
					if !listed {
						at = len(order)
					}
					ok = at >= last
					last = at
				}
				a = a.next()
			}
			if ok && lead > best {
				rots[i], best = start, lead
			}
		}
		if best < 0 {
			return nil, false
		}
	}
	return rots, true
}

// state is a pattern's current range [b, e) in the sequence its walk
// has reached; b == -1 means the pattern is still unconstrained.
type state struct{ b, e int }

// bindOp narrows a pattern's range by one component: a constant, or the
// value just agreed for the level's variable.
type bindOp struct {
	ax      axis
	isConst bool
	c       uint32
}

// part is one pattern's share of a level: where its candidates for the
// level's variable come from and what binding the agreed value entails.
// Given the order and the rotations all of it is static, so it is
// compiled once per join.
type part struct {
	pat int
	// seq holds the candidates; open marks a pattern with nothing bound
	// yet, for which every symbol of seq's alphabet is a candidate.
	seq  *wavelet.Matrix
	open bool
	// binds are the variable's occurrences and the constants after them,
	// in rotation order.
	binds []bindOp
}

// level is one variable of the order: its participating patterns and
// the slots their states are saved in while deeper levels run.
type level struct {
	parts []part
	saved []state
	// enum indexes the level's only part that is not open, when there is
	// exactly one: nothing is left to intersect, so the distinct symbols
	// of that part's range are the level's candidates and one wavelet
	// descent enumerates them. -1 means leapfrog over every part.
	enum int
}

type joiner struct {
	r      *ring.Ring
	lead   []part // constants ahead of every pattern's first variable
	levels []level
	states []state
	vals   []uint32
	emit   func([]uint32) bool
	// next is enumerated as a func value, made once per join; lv is the
	// level whose descent it is serving.
	next func(c uint32, rb, re int) bool
	lv   int

	limit   int64
	budget  core.Budget
	steps   int
	stats   Stats
	stopped bool
	failure error
}

// newJoiner compiles the patterns' rotation walks into per-level parts.
func newJoiner(r *ring.Ring, patterns []Pattern, order []string, rots []axis) *joiner {
	j := &joiner{
		r:      r,
		levels: make([]level, len(order)),
		states: make([]state, len(patterns)),
		vals:   make([]uint32, len(order)),
	}
	j.next = j.enumerated
	pos := positions(order)
	seqs := [3]*wavelet.Matrix{axS: r.Ls, axO: r.Lo, axP: r.Lp}
	for i, p := range patterns {
		j.states[i] = state{-1, -1}
		var axes [3]axis
		var terms [3]Term
		for k, a := 0, rots[i]; k < 3; k, a = k+1, a.next() {
			axes[k], terms[k] = a, p.term(a)
		}
		k := 0
		lead := part{pat: i}
		for ; k < 3 && terms[k].Var == ""; k++ {
			lead.binds = append(lead.binds, bindOp{axes[k], true, terms[k].Const})
		}
		if k > 0 {
			j.lead = append(j.lead, lead)
		}
		for k < 3 {
			lv := pos[terms[k].Var]
			pt := part{pat: i, seq: seqs[axes[k]], open: k == 0}
			// The agreed value occurs in the range it was sought in, so
			// narrowing a pattern's last component by it cannot fail and
			// nothing reads the result: that bind is dropped.
			if k == 2 {
				k++
			}
			for ; k < 3 && (terms[k].Var == "" || pos[terms[k].Var] == lv); k++ {
				pt.binds = append(pt.binds, bindOp{axes[k], terms[k].Var == "", terms[k].Const})
			}
			j.levels[lv].parts = append(j.levels[lv].parts, pt)
		}
	}
	for i := range j.levels {
		l := &j.levels[i]
		l.saved = make([]state, len(l.parts))
		l.enum = -1
		for k := range l.parts {
			if !l.parts[k].open {
				if l.enum >= 0 {
					l.enum = -1
					break
				}
				l.enum = k
			}
		}
	}
	return j
}

// checkDeadline checks the join's budget every 64 candidates,
// mirroring core.Engine's cadence.
//
//ringrpq:noalloc
func (j *joiner) checkDeadline() bool {
	j.steps++
	if j.steps%64 != 0 {
		return true
	}
	if err := j.budget.Check(); err != nil {
		j.failure = err
		j.stopped = true
		return false
	}
	return true
}

// apply runs a part's binds with x as the variable's value; false means
// the pattern's range became empty.
//
//ringrpq:noalloc
func (j *joiner) apply(pt *part, x uint32) bool {
	return j.applyBinds(pt.pat, pt.binds, x)
}

// applyAt runs the binds of a level's enumerated part for the symbol c
// its descent produced, whose occurrence ranks in the part's range are
// [rb, re). The first bind is the variable's own backward step, and
// those ranks already are its result, offset by the sequence's C array;
// only the binds after it search.
//
//ringrpq:noalloc
func (j *joiner) applyAt(pt *part, c uint32, rb, re int) bool {
	if len(pt.binds) == 0 {
		return true
	}
	j.stats.Binds++
	base := pt.seq.Counts()[c]
	j.states[pt.pat] = state{base + rb, base + re}
	return j.applyBinds(pt.pat, pt.binds[1:], c)
}

// applyBinds narrows pattern i's range by binds, with x as the value of
// the variable's occurrences.
//
//ringrpq:noalloc
func (j *joiner) applyBinds(i int, binds []bindOp, x uint32) bool {
	for _, op := range binds {
		v := x
		if op.isConst {
			v = op.c
		}
		if !j.bind(i, op.ax, v) {
			return false
		}
	}
	return true
}

// bind narrows pattern i's range by value v of component a, following
// the LF cycle. It reports whether the range stays nonempty.
//
//ringrpq:noalloc
func (j *joiner) bind(i int, a axis, v uint32) bool {
	j.stats.Binds++
	st := &j.states[i]
	if st.b == -1 {
		// First binding: jump straight to the component's C-array range.
		switch a {
		case axS:
			if int(v) >= j.r.NumNodes {
				return false
			}
			st.b, st.e = j.r.SubjectRange(v) // range of L_o
		case axO:
			if int(v) >= j.r.NumNodes {
				return false
			}
			st.b, st.e = j.r.ObjectRange(v) // range of L_p
		case axP:
			if v >= j.r.NumPreds {
				return false
			}
			st.b, st.e = j.r.PredRange(v) // range of L_s
		}
	} else {
		// Backward-search step: the current range's sequence holds
		// exactly the values of axis a.
		switch a {
		case axS:
			st.b, st.e = j.r.BackwardBySubj(st.b, st.e, v)
		case axO:
			st.b, st.e = j.r.BackwardByObj(st.b, st.e, v)
		case axP:
			st.b, st.e = j.r.BackwardByPred(st.b, st.e, v)
		}
	}
	return st.b < st.e
}

// seek returns the part's smallest candidate ≥ x.
//
//ringrpq:noalloc
func (j *joiner) seek(pt *part, x uint32) (uint32, bool) {
	j.stats.Seeks++
	if pt.open {
		return x, x < pt.seq.Sigma()
	}
	st := j.states[pt.pat]
	return pt.seq.MinAtLeast(st.b, st.e, x)
}

// run binds the variable of level lv and recurses: by enumerating the
// one constrained part's range when the level has a single one, by
// leapfrog intersection of the parts' sorted candidate streams
// otherwise.
//
//ringrpq:noalloc
func (j *joiner) run(lv int) {
	if lv == len(j.levels) {
		j.stats.Rows++
		if !j.emit(j.vals) || j.stats.Rows == j.limit {
			j.stopped = true
		}
		return
	}
	l := &j.levels[lv]
	if l.enum >= 0 {
		pt := &l.parts[l.enum]
		st := j.states[pt.pat]
		j.lv = lv
		wavelet.RangeDistinct(pt.seq, st.b, st.e, j.next)
		return
	}
	x := uint32(0)
	for {
		if !j.checkDeadline() {
			return
		}
		// Seek round-robin until every part has produced x in a row.
		for agreed, k := 0, 0; agreed < len(l.parts); k = (k + 1) % len(l.parts) {
			c, ok := j.seek(&l.parts[k], x)
			if !ok {
				return
			}
			if c > x {
				x, agreed = c, 0
			}
			agreed++
		}
		// Bind, recurse, backtrack.
		for k := range l.parts {
			l.saved[k] = j.states[l.parts[k].pat]
		}
		ok := true
		for k := 0; ok && k < len(l.parts); k++ {
			ok = j.apply(&l.parts[k], x)
		}
		if ok {
			j.vals[lv] = x
			j.run(lv + 1)
		}
		for k := range l.parts {
			j.states[l.parts[k].pat] = l.saved[k]
		}
		if j.stopped || x == ^uint32(0) {
			return
		}
		x++
	}
}

// enumerated is the descent callback of an enumerating level (j.lv): it
// binds the symbol c, whose occurrence ranks in the enumerated part's
// range are [rb, re), recurses and backtracks. false stops the descent.
//
//ringrpq:noalloc
func (j *joiner) enumerated(c uint32, rb, re int) bool {
	lv := j.lv
	l := &j.levels[lv]
	j.stats.Seeks++
	if !j.checkDeadline() {
		return false
	}
	for k := range l.parts {
		l.saved[k] = j.states[l.parts[k].pat]
	}
	ok := true
	for k := 0; ok && k < len(l.parts); k++ {
		if k == l.enum {
			ok = j.applyAt(&l.parts[k], c, rb, re)
		} else {
			ok = j.apply(&l.parts[k], c)
		}
	}
	if ok {
		j.vals[lv] = c
		j.run(lv + 1)
		j.lv = lv
	}
	for k := range l.parts {
		j.states[l.parts[k].pat] = l.saved[k]
	}
	return !j.stopped
}
