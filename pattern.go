package ringrpq

// This file is the public surface of the graph-pattern subsystem
// (internal/query): SPARQL-ish multi-clause queries mixing triple
// patterns and RPQ clauses, planned by selectivity and executed by
// pipelining Leapfrog Triejoin with bound-endpoint RPQ evaluation —
// the §6 integration the paper sketches.

import (
	"context"
	"encoding/binary"
	"sort"

	"ringrpq/internal/ltj"
	"ringrpq/internal/obs"
	"ringrpq/internal/query"
)

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
// the snapshot's overlay so patterns see live updates. The executor
// keeps the planner's statistics, so a swap's new ring starts counting
// afresh.
func (db *DB) patternFor(snap *snapshot) *query.Exec {
	if db.pat == nil || db.patEpoch != snap.epoch {
		db.pat = query.NewExec(db.g, snap.r)
		db.patEpoch = snap.epoch
	}
	db.pat.SetOverlay(snap.ov, snap.numNodes)
	return db.pat
}

// name renders a bound id: a completed predicate's name for a
// predicate-position variable, a node's otherwise.
func (db *DB) name(pred bool, id uint32) string {
	if pred {
		return db.g.PredName(id)
	}
	return db.g.Nodes.Name(id)
}

// Select evaluates a graph-pattern query and returns the projected
// result table: the variable names (the SELECT list when the query has
// one, every variable in order of first appearance otherwise) and one
// row of values per solution, distinct after projection. Like the 2RPQ
// methods it must not be called concurrently on one DB; use Clone or a
// Service. ctx, WithLimit and WithTimeout act as they do on Query: a
// deadline returns ErrTimeout with the rows found so far, a cancelled
// ctx stops at the next row or the evaluation's next probe with
// ctx.Err().
func (db *DB) Select(ctx context.Context, q string, opts ...QueryOption) (vars []string, rows [][]string, err error) {
	node, err := query.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	vars = node.OutVars()
	o := options(opts)
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	snap := db.h.acquire()
	defer db.h.release(snap)
	err = db.selectFuncOn(ctx, snap, node, o.Limit, func(row []string) bool {
		rows = append(rows, row)
		return true
	})
	return vars, rows, err
}

// selectFuncOn streams the projected, deduplicated rows of a pattern
// (values ordered by the query's OutVars), evaluated against a pinned
// snapshot under ctx, which may carry an obs.Trace; each row is freshly
// allocated. limit (0 = none) caps distinct projected rows, so the
// underlying evaluation runs unlimited and stops once enough rows
// materialise; projection can identify distinct rows,
// hence the dedup on the projected ids (a name has one id, so that is
// the dedup by name), and names are rendered only for the rows kept.
func (db *DB) selectFuncOn(ctx context.Context, snap *snapshot, node *query.Query, limit int, emit func([]string) bool) error {
	vars, preds := node.OutVars(), node.PredVars()
	slot := make(map[string]int)
	for i, v := range node.Vars() {
		slot[v] = i
	}
	proj := make([]int, len(vars))
	for i, v := range vars {
		proj[i] = slot[v]
	}
	// Without a SELECT list the projection is the identity, rows are
	// already distinct by the executor's contract, and the dedup map
	// would only burn memory.
	var (
		seen map[string]struct{}
		key  []byte
	)
	if node.Select != nil {
		seen = map[string]struct{}{}
	}
	emitted := 0
	qo := query.Options{Trace: obs.FromContext(ctx)} // no Limit: see above
	return db.patternFor(snap).Run(ctx, node, qo, func(row []uint32) bool {
		if seen != nil {
			key = key[:0]
			for _, s := range proj {
				key = binary.LittleEndian.AppendUint32(key, row[s])
			}
			if _, dup := seen[string(key)]; dup {
				return true
			}
			seen[string(key)] = struct{}{}
		}
		out := make([]string, len(proj))
		for i, s := range proj {
			out[i] = db.name(preds[vars[i]], row[s])
		}
		emitted++
		if !emit(out) {
			return false
		}
		return limit == 0 || emitted < limit
	})
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
