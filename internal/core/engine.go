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
//
// There is one implementation of that traversal, Engine (multiring*.go):
// a kernel over one ring and an optional live-update Delta. The paper's
// static ring is its no-delta case (NewEngine); the overlay's union
// graph is the same loop with a non-empty delta (SetDelta). The kernel
// also decides, per query, whether an attached delta can change the
// answer; when it cannot, the evaluation is the no-delta one. So a
// caller keeps one Engine per worker whatever its snapshot holds. This
// file holds what every caller of it shares: queries, options,
// statistics, errors.
package core

import (
	"context"
	"errors"
	"time"

	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
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
	// Limit caps the number of emitted results; 0 means unlimited. The
	// traversal orders its work so that results come first and stops at
	// the limit: a batched level descends its result-bearing ranges
	// first, and a long range that cannot report is descended in
	// doubling installments, its tail deferred until the frontier runs
	// dry. So which pairs a limited evaluation returns may change
	// between versions; their order stays unspecified.
	Limit int
	// Timeout bounds wall-clock evaluation time; ≤ 0 means none.
	Timeout time.Duration
	// DisableFastPaths forces the generic product-graph algorithm even
	// for the join-like patterns of §5 (used by the ablation benchmark).
	DisableFastPaths bool
	// DisableBatching reverts the level-synchronous frontier-batched
	// traversal to the item-at-a-time descent, where every (node, states)
	// frontier entry pays its own root-to-leaf wavelet descent (ablation).
	DisableBatching bool
	// DisableCompiled forces the generic interpreted simulation — the
	// multiword fallback kept for wide (>64-state) expressions — even
	// for expressions of at most 64 states. It is the ablation baseline
	// and the differential oracle: the fallback interprets the
	// automaton with per-step multiword masks and a visited hash map,
	// with none of the flat B[v]/D[v] wavelet-node pruning arrays and
	// no compiled glushkov.Stepper table.
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
	// ProductNodes counts arrivals that add states — reaching a node of
	// G'_E with states it was not yet visited with — once per arrival.
	ProductNodes int
	// ProductEdges counts backward-search steps taken (predicate leaves
	// reached in part 1), i.e. traversed edge groups of G'_E.
	ProductEdges int
	// WaveletVisits counts wavelet-tree nodes touched in parts 1 and 2.
	WaveletVisits int
	// SubjectVisits counts the part of WaveletVisits spent in part 2,
	// the L_s descents to the subjects a step reaches.
	SubjectVisits int
	// Results counts emitted pairs.
	Results int
}

// EmitFunc receives one (subject, object) result pair. Returning false
// stops the evaluation early.
type EmitFunc func(s, o uint32) bool

// Evaluator is the query-evaluation capability Engine implements; the
// public DB and the pattern executor evaluate on an Engine with their
// snapshot's overlay attached. Eval takes the request
// context first (the repo's ctx-first convention, enforced by rpqlint's
// ctxfirst analyzer): ctx may carry an obs.Trace and a deadline, folded
// into Options once at entry via FoldContext.
type Evaluator interface {
	Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error)
}

// FoldContext merges ctx-carried request state into opts: an unset
// Trace is filled from the context (obs.FromContext), and a context
// deadline earlier than Options.Timeout tightens it; a Timeout ≤ 0 is
// unset, so the context deadline replaces it. Engines call it
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
		if opts.Timeout <= 0 || rem < opts.Timeout {
			opts.Timeout = rem
		}
	}
	return opts
}
