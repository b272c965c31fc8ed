package ringrpq

// This file is the public surface of the graph-pattern subsystem
// (internal/query): SPARQL-ish multi-clause queries mixing triple
// patterns and RPQ clauses, planned by selectivity and executed by
// pipelining Leapfrog Triejoin with bound-endpoint RPQ evaluation —
// the §6 integration the paper sketches.

import (
	"sort"
	"strconv"

	"ringrpq/internal/core"
	"ringrpq/internal/ltj"
	"ringrpq/internal/query"
)

// Binding is one graph-pattern solution: variable name (without '?')
// to the bound node name — or, for predicate-position variables, the
// predicate name ('^'-prefixed for inverse edges).
type Binding = query.Binding

// ErrCrossShard reports a graph pattern whose clauses span several
// sub-rings of a sharded database; such joins are not yet supported
// (single-shard patterns are routed wholesale).
var ErrCrossShard = query.ErrCrossShard

// ErrUnsupportedOrder reports a basic graph pattern that admits no
// single-ring variable order (full generality needs the second,
// reversed ring of the SIGMOD'21 construction).
var ErrUnsupportedOrder = ltj.ErrUnsupportedOrder

// ParseQuery validates a graph-pattern query, returning a descriptive
// error for malformed input. The grammar, informally:
//
//	[SELECT ?v... WHERE {] clause ( . clause )* [}]
//	clause := term path term
//
// where a term is ?var, a bare node name or <name>, and path is a
// ?var predicate, a plain (possibly ^-inverted) predicate — a triple
// pattern — or any ringrpq path expression, an RPQ clause. Tokens are
// whitespace-separated; ".", "{" and "}" must stand alone.
func ParseQuery(q string) error {
	_, err := query.Parse(q)
	return err
}

// patternFor lazily builds the per-DB pattern executor for a pinned
// snapshot, rebuilding it after a compaction swap and pointing it at
// the snapshot's overlay so patterns see live updates. The selectivity
// statistics behind the planner are shared across clones via the
// SelCache created at construction time.
func (db *DB) patternFor(snap *snapshot) *query.Exec {
	if db.pat == nil || db.patEpoch != snap.epoch {
		if snap.set != nil {
			db.pat = query.NewExecSharded(db.g, snap.set, db.sel)
		} else {
			db.pat = query.NewExec(db.g, snap.r, db.sel)
		}
		db.patEpoch = snap.epoch
	}
	if snap.ov.Empty() {
		db.pat.SetOverlay(nil, 0)
	} else {
		db.pat.SetOverlay(snap.ov, snap.numNodes)
	}
	return db.pat
}

// QueryPattern evaluates a graph-pattern query and returns all
// bindings. Like the 2RPQ methods it must not be called concurrently
// on one DB; use Clone or a Service. Bindings are distinct;
// WithLimit/WithTimeout apply (a timeout returns ErrTimeout with the
// bindings found so far).
func (db *DB) QueryPattern(q string, opts ...QueryOption) ([]Binding, error) {
	var out []Binding
	err := db.QueryPatternFunc(q, func(b Binding) bool {
		out = append(out, b)
		return true
	}, opts...)
	return out, err
}

// QueryPatternFunc is QueryPattern with streaming delivery: emit
// receives each binding and may return false to stop early.
func (db *DB) QueryPatternFunc(q string, emit func(Binding) bool, opts ...QueryOption) error {
	node, err := query.Parse(q)
	if err != nil {
		return err
	}
	return db.queryPattern(node, options(opts), emit)
}

// queryPattern evaluates a pre-parsed pattern (the entry point used by
// Service workers, which share parsed patterns across requests).
func (db *DB) queryPattern(node *query.Query, o core.Options, emit func(Binding) bool) error {
	snap := db.h.acquire()
	defer db.h.release(snap)
	return db.queryPatternOn(snap, node, o, emit)
}

// queryPatternOn evaluates a pre-parsed pattern against an
// already-pinned snapshot (the standing-query host evaluates on a
// batch's two snapshots rather than whatever is current).
func (db *DB) queryPatternOn(snap *snapshot, node *query.Query, o core.Options, emit func(Binding) bool) error {
	return db.patternFor(snap).Run(node, query.Options{Limit: o.Limit, Timeout: o.Timeout, Trace: o.Trace}, emit)
}

// options folds QueryOptions into a core.Options value.
func options(opts []QueryOption) core.Options {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Select evaluates a graph-pattern query and returns the projected
// result table: the variable names (the SELECT list when the query has
// one, every variable in order of first appearance otherwise) and one
// row of values per solution, distinct after projection.
func (db *DB) Select(q string, opts ...QueryOption) (vars []string, rows [][]string, err error) {
	node, err := query.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	vars = node.OutVars()
	rows, err = db.selectRows(node, options(opts))
	return vars, rows, err
}

// selectFunc streams the projected, deduplicated rows of a pattern
// (values ordered by the query's OutVars). The limit caps distinct
// projected rows, so the underlying evaluation runs unlimited and
// stops once enough rows materialise; projection can identify
// distinct bindings, hence the dedup here.
func (db *DB) selectFunc(node *query.Query, o core.Options, emit func([]string) bool) error {
	snap := db.h.acquire()
	defer db.h.release(snap)
	return db.selectFuncOn(snap, node, o, emit)
}

// selectFuncOn is selectFunc against an already-pinned snapshot.
func (db *DB) selectFuncOn(snap *snapshot, node *query.Query, o core.Options, emit func([]string) bool) error {
	vars := node.OutVars()
	inner := o
	inner.Limit = 0
	// Without a SELECT list the projection is the identity, bindings
	// are already distinct by the executor's contract, and the dedup
	// map would only burn memory.
	var seen map[string]bool
	if node.Select != nil {
		seen = map[string]bool{}
	}
	emitted := 0
	return db.queryPatternOn(snap, node, inner, func(b Binding) bool {
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = b[v]
		}
		if seen != nil {
			key := ""
			for _, v := range row {
				key += strconv.Itoa(len(v)) + ":" + v
			}
			if seen[key] {
				return true
			}
			seen[key] = true
		}
		emitted++
		if !emit(row) {
			return false
		}
		return o.Limit == 0 || emitted < o.Limit
	})
}

// selectRows materialises selectFunc's stream.
func (db *DB) selectRows(node *query.Query, o core.Options) ([][]string, error) {
	var rows [][]string
	err := db.selectFunc(node, o, func(row []string) bool {
		rows = append(rows, row)
		return true
	})
	return rows, err
}

// SortRows orders a Select result table lexicographically, for stable
// display and tests.
func SortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// PatternPlan is the planner's account of one graph pattern.
type PatternPlan struct {
	// Order is the leapfrog variable order over the triple patterns, and
	// Estimates[i] the candidate count the planner expected for
	// Order[i]: exact where a triple pattern pins the variable between
	// two constants, a distinct count of its cheapest clause otherwise.
	Order     []string
	Estimates []float64
	// Triples are the triple patterns as the plan stores them.
	Triples []TriplePlan
	// PathSteps counts the RPQ clauses pipelined behind the join.
	PathSteps int
}

// TriplePlan is one triple pattern of a PatternPlan.
type TriplePlan struct {
	// Pattern renders the stored form, e.g. "?e ^manages ?m"; Inverted
	// marks a clause the planner turned around ((?s p ?o) ≡ (?o ^p ?s))
	// because Order binds its object first.
	Pattern  string
	Inverted bool
	// Rotation is the ring walk the join takes through the stored form:
	// "s→o→p", "o→p→s" or "p→s→o".
	Rotation string
}

// ExplainPattern returns the planner's decisions for a pattern without
// executing it (debugging and tests).
func (db *DB) ExplainPattern(q string) (PatternPlan, error) {
	node, err := query.Parse(q)
	if err != nil {
		return PatternPlan{}, err
	}
	snap := db.h.acquire()
	defer db.h.release(snap)
	pl, err := db.patternFor(snap).Plan(node)
	if err != nil {
		return PatternPlan{}, err
	}
	out := PatternPlan{Order: pl.Order, PathSteps: len(pl.Steps)}
	for _, v := range pl.Order {
		out.Estimates = append(out.Estimates, pl.VarEst[v])
	}
	nodeText := func(t ltj.Term) string {
		if t.Var != "" {
			return "?" + t.Var
		}
		return db.g.Nodes.Name(t.Const)
	}
	for i, t := range pl.Triples {
		pred := "?" + t.P.Var
		if t.P.Var == "" {
			pred = db.g.PredName(t.P.Const)
		}
		out.Triples = append(out.Triples, TriplePlan{
			Pattern:  nodeText(t.S) + " " + pred + " " + nodeText(t.O),
			Inverted: pl.Inverted[i],
			Rotation: pl.Rotations[i],
		})
	}
	return out, nil
}
