// Package oracle decides whether an answer rpqd gave is right, without
// using any of the code rpqd answered with: 2RPQs are re-evaluated by
// the node-at-a-time product-graph BFS of internal/baseline/bfs over
// adjacency lists, graph patterns by a backtracking join whose every
// clause is one such BFS, and updates are replayed into a plain set of
// edges from which the adjacency lists are rebuilt.
package oracle

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"ringrpq/bench/oplog"
	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/triples"
)

// Verdict is the outcome of checking one answer.
type Verdict int

const (
	OK       Verdict = iota
	Mismatch         // the answer is wrong
	Skipped          // the oracle ran out of its budget; nothing is known
)

// Budget bounds one oracle evaluation in wall time. Work is a second,
// machine-independent bound on graph patterns (pairs produced by clause
// evaluations); 0 means none.
type Budget struct {
	Time time.Duration
	Work int
}

// CheckBudget is what one sampled answer may cost to verify.
var CheckBudget = Budget{Time: 200 * time.Millisecond}

// AffordBudget is the cost bound a generated graph pattern must meet to
// enter an op log (see Affordable). It is a count, not a time, so the
// same patterns qualify on every machine and every commit.
var AffordBudget = Budget{Time: 2 * time.Second, Work: 1000}

// Oracle answers queries over one state of the graph.
type Oracle struct {
	g  *triples.Graph
	ix *bfs.Index
}

// New indexes g.
func New(g *triples.Graph) *Oracle { return &Oracle{g: g, ix: bfs.New(g)} }

// Pair is one (subject, object) answer by name.
type Pair struct{ S, O string }

var errBudget = errors.New("oracle: budget exhausted")

// node resolves an endpoint name: "" is a variable (-1); a name the
// graph lacks has no id, and a query over it has no answers.
func (o *Oracle) node(name string) (id int64, known bool) {
	if name == "" {
		return -1, true
	}
	v, ok := o.g.Nodes.Lookup(name)
	return int64(v), ok
}

// pairs evaluates (s, expr, o) into a set, stopping after limit pairs
// when limit > 0.
func (o *Oracle) pairs(s int64, expr pathexpr.Node, obj int64, limit int, deadline time.Time) (map[[2]uint32]bool, error) {
	left := time.Until(deadline)
	if left <= 0 {
		return nil, errBudget
	}
	out := map[[2]uint32]bool{}
	err := o.ix.Eval(s, expr, obj, bfs.Options{Limit: limit, Timeout: left}, func(a, b uint32) bool {
		out[[2]uint32{a, b}] = true
		return true
	})
	if err != nil {
		return nil, errBudget
	}
	return out, nil
}

// CheckQuery verifies the solutions of a /query op under the request
// limit: fewer solutions than the limit must be exactly the oracle's
// set; a full response must be a duplicate-free subset of it.
func (o *Oracle) CheckQuery(op oplog.Op, got []Pair, b Budget) (Verdict, string) {
	expr, err := pathexpr.Parse(op.Expr)
	if err != nil {
		return Mismatch, "oracle cannot parse " + op.Expr
	}
	deadline := time.Now().Add(b.Time)
	s, sKnown := o.node(op.Subject)
	obj, oKnown := o.node(op.Object)

	gotIDs := make(map[[2]uint32]bool, len(got))
	for _, p := range got {
		a, okA := o.g.Nodes.Lookup(p.S)
		c, okC := o.g.Nodes.Lookup(p.O)
		if !okA || !okC {
			return Mismatch, fmt.Sprintf("answer names an unknown node: %v", p)
		}
		if gotIDs[[2]uint32{a, c}] {
			return Mismatch, fmt.Sprintf("duplicate answer %v", p)
		}
		gotIDs[[2]uint32{a, c}] = true
	}
	if !sKnown || !oKnown {
		return limited(len(got), nil, func([2]uint32) bool { return false })
	}

	// With a constant endpoint, or an answer below the limit, the whole
	// oracle set is affordable (the latter needs only limit+1 pairs to
	// show a short answer short).
	if s >= 0 || obj >= 0 || len(got) < oplog.Limit {
		limit := 0
		if s < 0 && obj < 0 {
			limit = oplog.Limit + 1
		}
		want, err := o.pairs(s, expr, obj, limit, deadline)
		if err != nil {
			return Skipped, ""
		}
		return limited(len(got), want, func(p [2]uint32) bool { return gotIDs[p] })
	}

	// A full v-to-v answer: the oracle set may be the whole graph, so
	// membership is decided per distinct subject instead.
	bySubject := map[uint32]map[[2]uint32]bool{}
	for p := range gotIDs {
		want, seen := bySubject[p[0]]
		if !seen {
			var err error
			if want, err = o.pairs(int64(p[0]), expr, -1, 0, deadline); err != nil {
				return Skipped, ""
			}
			bySubject[p[0]] = want
		}
		if !want[p] {
			return Mismatch, fmt.Sprintf("(%s, %s) is not an answer", o.g.Nodes.Name(p[0]), o.g.Nodes.Name(p[1]))
		}
	}
	return OK, ""
}

// limited is the limit-aware comparison shared by queries and patterns.
// n answers came back, all distinct; want is the oracle's complete set
// (possibly cut at limit+1, which is enough to expose a short answer);
// has reports whether an oracle element was among the answers.
func limited[K comparable](n int, want map[K]bool, has func(K) bool) (Verdict, string) {
	switch {
	case n > oplog.Limit:
		return Mismatch, fmt.Sprintf("%d answers exceed the limit", n)
	case n == oplog.Limit:
		// Every answer must be in the oracle set: n distinct answers of
		// which `found` are oracle elements.
		found := 0
		for k := range want {
			if has(k) {
				found++
			}
		}
		if found != n {
			return Mismatch, fmt.Sprintf("%d of %d answers are not in the oracle set", n-found, n)
		}
		return OK, ""
	default:
		if len(want) != n {
			return Mismatch, fmt.Sprintf("%d answers, oracle has %d", n, len(want))
		}
		for k := range want {
			if !has(k) {
				return Mismatch, fmt.Sprintf("oracle answer %v is missing", k)
			}
		}
		return OK, ""
	}
}

// CheckSelect verifies the rows of a /select op the same way.
func (o *Oracle) CheckSelect(op oplog.Op, vars []string, rows [][]string, b Budget) (Verdict, string) {
	q, err := query.Parse(op.Pattern)
	if err != nil {
		return Mismatch, "oracle cannot parse " + op.Pattern
	}
	if strings.Join(vars, " ") != strings.Join(q.OutVars(), " ") {
		return Mismatch, fmt.Sprintf("vars %v, expected %v", vars, q.OutVars())
	}
	got := make(map[string]bool, len(rows))
	for _, r := range rows {
		key := strings.Join(r, "\x00")
		if got[key] {
			return Mismatch, fmt.Sprintf("duplicate row %v", r)
		}
		got[key] = true
	}
	want, err := o.selectRows(q, b)
	if err != nil {
		return Skipped, ""
	}
	return limited(len(rows), want, func(k string) bool { return got[k] })
}

// Affordable reports whether the oracle can enumerate every row of a
// pattern within AffordBudget's work bound.
func (o *Oracle) Affordable(op oplog.Op) bool {
	q, err := query.Parse(op.Pattern)
	if err != nil {
		return false
	}
	_, err = o.selectRows(q, AffordBudget)
	return err == nil
}

// selectRows enumerates the distinct projected rows of q by
// backtracking: the next clause is always one with the most bound
// endpoints, and each clause evaluation is one BFS of the baseline.
func (o *Oracle) selectRows(q *query.Query, b Budget) (map[string]bool, error) {
	e := &selectEval{
		o: o, q: q, out: q.OutVars(), maxWork: b.Work,
		deadline: time.Now().Add(b.Time),
		bind:     map[string]uint32{},
		used:     make([]bool, len(q.Clauses)),
		rows:     map[string]bool{},
	}
	if err := e.run(0); err != nil {
		return nil, err
	}
	return e.rows, nil
}

type selectEval struct {
	o        *Oracle
	q        *query.Query
	out      []string
	work     int // pairs produced and clauses evaluated so far
	maxWork  int // 0 = unbounded
	deadline time.Time
	bind     map[string]uint32
	used     []bool
	rows     map[string]bool
}

// endpoint resolves a clause term under the current bindings.
func (e *selectEval) endpoint(t query.Term) (id int64, known bool) {
	if t.IsVar() {
		if v, ok := e.bind[t.Var]; ok {
			return int64(v), true
		}
		return -1, true
	}
	return e.o.node(t.Name)
}

func (e *selectEval) spend(n int) error {
	if e.work += n; e.maxWork > 0 && e.work > e.maxWork {
		return errBudget
	}
	return nil
}

func (e *selectEval) run(depth int) error {
	if depth == len(e.q.Clauses) {
		vals := make([]string, len(e.out))
		for i, v := range e.out {
			vals[i] = e.o.g.Nodes.Name(e.bind[v])
		}
		e.rows[strings.Join(vals, "\x00")] = true
		return nil
	}
	next, best := -1, -1
	for i, c := range e.q.Clauses {
		if e.used[i] {
			continue
		}
		score := 0
		for _, t := range []query.Term{c.S, c.O} {
			if id, _ := e.endpoint(t); id >= 0 {
				score++
			}
		}
		if score > best {
			next, best = i, score
		}
	}
	c := e.q.Clauses[next]
	if c.Path == nil {
		return errBudget // variable predicates: the generator emits none
	}
	s, sKnown := e.endpoint(c.S)
	obj, oKnown := e.endpoint(c.O)
	if !sKnown || !oKnown {
		return nil // a constant the graph lacks: no rows
	}
	if err := e.spend(1); err != nil {
		return err
	}
	// Under a work bound no clause needs more pairs than the bound has
	// left, which keeps an unanchored first clause cheap to reject.
	limit := 0
	if e.maxWork > 0 {
		limit = e.maxWork - e.work + 1
	}
	found, err := e.o.pairs(s, c.Path, obj, limit, e.deadline)
	if err != nil {
		return err
	}
	if err := e.spend(len(found)); err != nil {
		return err
	}
	e.used[next] = true
	defer func() { e.used[next] = false }()
	for p := range found {
		if c.S.IsVar() && c.S.Var == c.O.Var && p[0] != p[1] {
			continue
		}
		var bound []string
		for i, t := range []query.Term{c.S, c.O} {
			if !t.IsVar() {
				continue
			}
			if _, ok := e.bind[t.Var]; !ok {
				e.bind[t.Var] = p[i]
				bound = append(bound, t.Var)
			}
		}
		err := e.run(depth + 1)
		for _, v := range bound {
			delete(e.bind, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// EdgeSet is the map-of-edges model of a graph under updates: the base
// edges by name, with acknowledged batches replayed into it.
type EdgeSet struct {
	preds []string // the base graph's predicates, in id order
	// nodes is every node name ever seen, in first-seen order. A node
	// outlives its last edge, as it does in rpqd's dictionary: a
	// nullable expression pairs it with itself for good.
	nodes []string
	known map[string]bool
	edges map[oplog.Triple]struct{}
}

// NewEdgeSet copies the base (uncompleted) edges of g.
func NewEdgeSet(g *triples.Graph) *EdgeSet {
	es := &EdgeSet{edges: make(map[oplog.Triple]struct{}, g.Len()/2), known: map[string]bool{}}
	for p := uint32(0); p < g.NumPreds; p++ {
		es.preds = append(es.preds, g.Preds.Name(p))
	}
	for v := 0; v < g.NumNodes(); v++ {
		es.node(g.Nodes.Name(uint32(v)))
	}
	for _, t := range g.Triples {
		if t.P < g.NumPreds {
			es.edges[oplog.Triple{S: g.Nodes.Name(t.S), P: g.Preds.Name(t.P), O: g.Nodes.Name(t.O)}] = struct{}{}
		}
	}
	return es
}

func (es *EdgeSet) node(name string) {
	if !es.known[name] {
		es.known[name] = true
		es.nodes = append(es.nodes, name)
	}
}

// Apply replays one acknowledged batch: adds, then dels (a delete wins
// over an add of the same edge in one batch, as in DB.Apply).
func (es *EdgeSet) Apply(adds, dels []oplog.Triple) {
	for _, t := range adds {
		es.edges[t] = struct{}{}
		es.node(t.S)
		es.node(t.O)
	}
	for _, t := range dels {
		delete(es.edges, t)
	}
}

// Has reports whether the edge is present.
func (es *EdgeSet) Has(t oplog.Triple) bool {
	_, ok := es.edges[t]
	return ok
}

// Oracle indexes the current state. Predicates and nodes keep their ids
// even when an update removed their last edge, so every expression of
// the op log still resolves and the node universe only grows.
func (es *EdgeSet) Oracle() *Oracle {
	b := triples.NewBuilder()
	for _, p := range es.preds {
		b.Preds().Intern(p)
	}
	for _, v := range es.nodes {
		b.Nodes().Intern(v)
	}
	for t := range es.edges {
		b.Add(t.S, t.P, t.O)
	}
	return New(b.Build())
}
