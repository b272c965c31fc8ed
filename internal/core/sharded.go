package core

import (
	"context"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// ShardedEngine evaluates 2RPQs over a ring.ShardSet.
//
// Because a matching path may use edges of several shards, the query
// cannot simply be evaluated per shard and the results unioned. Two
// strategies keep evaluation exact:
//
//   - Routing: when every predicate the expression mentions maps to the
//     same shard, every edge of every matching path lives there, and the
//     whole query is delegated to an Engine over that shard alone (§5
//     fast paths included). Single-predicate queries — the bulk of real
//     logs — always take this path.
//
//   - Union traversal: otherwise the query runs on an Engine over all
//     shards — a shard set is a union graph with an empty overlay.
//     Every BFS level is expanded over each sub-ring in turn (parts 1–2
//     with per-shard B[v]/D[v] masks) and novelty is decided against
//     one visited mask per node, so the traversal explores exactly the
//     product subgraph G'_E of the union graph and the result set
//     matches the unsharded engine's.
//
// Like Engine, a ShardedEngine owns reusable working arrays and must
// not be used concurrently; build one per worker. An evaluation runs on
// its caller's goroutine.
type ShardedEngine struct {
	set *ring.ShardSet
	ids glushkov.SymbolIDs

	// engines holds the per-shard delegation kernels and union the
	// cross-shard one, each created on first use.
	engines []*Engine
	union   *Engine
}

var _ Evaluator = (*ShardedEngine)(nil)
var _ Evaluator = (*Engine)(nil)

// NewShardedEngine builds an evaluation engine over set. The ids
// function resolves predicate occurrences exactly as for NewEngine.
func NewShardedEngine(set *ring.ShardSet, ids glushkov.SymbolIDs) *ShardedEngine {
	return &ShardedEngine{set: set, ids: ids, engines: make([]*Engine, set.K)}
}

// Eval evaluates q with the same contract as Engine.Eval: distinct
// result pairs, ErrTimeout on an exceeded deadline (partial results
// remain valid). Result order is unspecified and generally differs
// from the unsharded engine's; the result set does not.
func (e *ShardedEngine) Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error) {
	if shard, ok := e.route(q.Expr); ok {
		return e.engineFor(shard).Eval(ctx, q, opts, emit)
	}
	if e.union == nil {
		e.union = NewMultiRing(e.set.Shards, e.ids, e.set.NumPreds)
	}
	return e.union.Eval(ctx, q, opts, emit)
}

// route reports the one shard that holds every edge a path matching
// expr could use, when such a shard exists. Unknown predicates match
// nothing and do not constrain the choice; expressions mentioning no
// known predicate (empty or ε-only languages) evaluate correctly on
// any shard because all shards share the global node space.
func (e *ShardedEngine) route(expr pathexpr.Node) (int, bool) {
	if e.set.K == 1 {
		return 0, true
	}
	if pathexpr.HasNegSets(expr) {
		// A negated property set may read any predicate outside its
		// exclusion list, which spans shards in general.
		return 0, false
	}
	shard := -1
	for _, s := range pathexpr.Predicates(expr) {
		id, ok := e.ids(s)
		if !ok {
			continue
		}
		k := e.set.ShardFor(id)
		if shard == -1 {
			shard = k
			continue
		}
		if shard != k {
			return 0, false
		}
	}
	if shard == -1 {
		shard = 0
	}
	return shard, true
}

// engineFor returns the shard's delegation engine, building it on
// first use.
func (e *ShardedEngine) engineFor(k int) *Engine {
	if e.engines[k] == nil {
		e.engines[k] = NewEngine(e.set.Shards[k], e.ids)
	}
	return e.engines[k]
}
