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
// a kernel over one ring and an optional live-update Delta, stepping
// one automaton simulation, the compiled 64-bit glushkov.Stepper. An
// expression's width is bounded where it is parsed
// (pathexpr.MaxPositions); a tree built by hand past that bound makes
// Eval return an error wrapping pathexpr.ErrTooLarge. The paper's
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
	// Timeout is a relative budget, read once when Eval starts: the
	// evaluation ends with ErrTimeout at the earlier of its context's
	// deadline and now+Timeout. ≤ 0 adds none. A request's budget
	// normally travels as its context's deadline; this field serves
	// WithTimeout on DB reads and callers without a context deadline.
	Timeout time.Duration
	// DisableFastPaths forces the generic product-graph algorithm even
	// for the join-like patterns of §5. It is an ablation switch and a
	// differential check: tests compare the fast paths against the
	// generic traversal under it.
	DisableFastPaths bool
	// DisableBatching reverts the level-synchronous frontier-batched
	// traversal to the item-at-a-time descent, where every (node, states)
	// frontier entry pays its own root-to-leaf wavelet descent. It is
	// kept, like DisableFastPaths, as an ablation switch and because
	// tests compare the batched traversal against the unbatched one.
	DisableBatching bool
	// DisableCompiled is ignored: the kernel has one automaton
	// simulation, and there is no interpreted one left to force. The
	// field stays only because the benchmark module under bench/ still
	// sets it for its interpreter probe, which now times the default
	// engine, and it goes with that call (ROADMAP item 17).
	DisableCompiled bool
	// Trace, when non-nil, records a traverse span with the evaluation's
	// Stats plus one span per BFS level (frontier size, wavelet-node
	// visits). Nil — the default — records nothing and costs one pointer
	// test per level.
	Trace *obs.Trace
}

// ErrTimeout reports that an evaluation ran out of time: its
// context's deadline or Options.Timeout passed.
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
// snapshot's overlay attached. Eval takes the request context first
// (the repo's ctx-first convention, enforced by rpqlint's ctxfirst
// analyzer): ctx carries the request's deadline and cancellation, and
// may carry an obs.Trace.
type Evaluator interface {
	Eval(ctx context.Context, q Query, opts Options, emit EmitFunc) (Stats, error)
}

// CtxErr is ctx.Err() with a passed deadline reported as ErrTimeout:
// the error a read returns once its context has ended.
func CtxErr(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return err
}

// Budget is one evaluation's time budget, read once off its request
// context: the context's Done channel, and the earlier of its deadline
// and a relative timeout. The kernel and the join each probe one in
// their loops (checkDeadline).
type Budget struct {
	ctx      context.Context
	done     <-chan struct{}
	deadline time.Time
}

// NewBudget reads ctx's budget, tightened by timeout when that is > 0;
// a timeout ≤ 0 leaves the context's deadline as it is.
func NewBudget(ctx context.Context, timeout time.Duration) Budget {
	b := Budget{ctx: ctx, done: ctx.Done()}
	b.deadline, _ = ctx.Deadline()
	if timeout > 0 {
		if t := time.Now().Add(timeout); b.deadline.IsZero() || t.Before(b.deadline) {
			b.deadline = t
		}
	}
	return b
}

// Poll reports whether the context has ended, without reading the
// clock: nil while it runs, otherwise CtxErr.
func (b *Budget) Poll() error {
	select {
	case <-b.done:
		return CtxErr(b.ctx)
	default:
		return nil
	}
}

// Check is Poll, and ErrTimeout once the deadline has passed by the
// clock: a relative timeout closes no channel, and a context's timer
// may fire late.
func (b *Budget) Check() error {
	if err := b.Poll(); err != nil {
		return err
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return ErrTimeout
	}
	return nil
}
