package ringrpq

// This file is the public surface of the standing-query subsystem
// (internal/standing): clients register a path expression or graph
// pattern once and receive incremental deltas — new and retracted
// result pairs or rows, tagged with the data version that produced
// them — as update batches apply. The snapshot layer (update.go)
// notifies the shared registry under its publish lock, so deltas
// arrive in version order and a subscription's view is always the
// exact diff between consecutive snapshots.

import (
	"context"
	"fmt"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/standing"
)

// Subscription is one standing query's delta stream (see
// DB.Subscribe). Consume with Next/TryNext from one goroutine at a
// time; Close/Detach are safe from any goroutine.
type Subscription = standing.Sub

// SubscribeRequest registers one standing query: either a 2RPQ (Expr
// plus optional constant Subject/Object endpoints) or a graph pattern
// (Pattern). Snapshot asks for the current result set as the first
// delta.
type SubscribeRequest = standing.Request

// Delta is one incremental result change (see standing.Delta).
type Delta = standing.Delta

// Pair is one 2RPQ result pair of a Delta.
type Pair = standing.Pair

// StandingConfig tunes the subscription subsystem (see
// DB.SetStandingConfig and standing.Config).
type StandingConfig = standing.Config

// StandingStats describes the subscription subsystem (Stats.Standing):
// the registry's counters.
type StandingStats = standing.Stats

// Standing-query errors (see the standing package for semantics).
var (
	// ErrSubscriptionClosed reports a closed / unsubscribed / shut-down
	// subscription.
	ErrSubscriptionClosed = standing.ErrClosed
	// ErrSubscriberLagged reports an overflowed pending queue; resume
	// from the last seen version to catch up from history.
	ErrSubscriberLagged = standing.ErrLagged
	// ErrUnknownSubscription reports a resume/unsubscribe for an
	// unknown id.
	ErrUnknownSubscription = standing.ErrUnknownSubscription
	// ErrResumeTooOld reports a resume version older than the retained
	// delta history.
	ErrResumeTooOld = standing.ErrTooOld
	// ErrResumeFuture reports a resume version beyond the processed
	// stream.
	ErrResumeFuture = standing.ErrFutureVersion
)

// standingHost adapts a dedicated DB clone to the registry's
// evaluation surface. Evaluations run only on the registry's single
// worker goroutine (the clone's one-caller rule holds); the dictionary
// and snapshot-holder methods are concurrency-safe by construction.
type standingHost struct {
	db *DB
}

func (h standingHost) Acquire() (standing.Snapshot, uint64) {
	s := h.db.h.acquire()
	return s, s.version
}

func (h standingHost) Release(s standing.Snapshot) { h.db.h.release(s.(*snapshot)) }

func (h standingHost) NumNodes(s standing.Snapshot) int { return s.(*snapshot).numNodes }

func (h standingHost) EvalRPQ(s standing.Snapshot, q standing.RPQ, emit func(subj, obj uint32) bool) error {
	_, err := h.db.evaluatorFor(s.(*snapshot)).Eval(context.Background(), q, core.Options{}, emit)
	return err
}

func (h standingHost) EvalPattern(s standing.Snapshot, q *standing.PatternQuery, emit func(row []string) bool) error {
	return h.db.selectFuncOn(context.Background(), s.(*snapshot), q, 0, emit)
}

func (h standingHost) NodeName(id uint32) string { return h.db.g.Nodes.Name(id) }

func (h standingHost) LookupNode(name string) (uint32, bool) { return h.db.g.Nodes.Lookup(name) }

func (h standingHost) SymbolIDs() standing.SymbolIDs { return h.db.predIDs() }

// PredSym maps a completed predicate id back to its expression symbol
// (the inverse of SymbolIDs; ids ≥ |P| are the inverse half).
func (h standingHost) PredSym(c uint32) standing.PredicateSym {
	np := h.db.g.NumPreds
	if c >= np {
		return pathexpr.Sym{Name: h.db.g.Preds.Name(c - np), Inverse: true}
	}
	return pathexpr.Sym{Name: h.db.g.Preds.Name(c)}
}

// registry returns the shared subscription registry, creating it (over
// a dedicated worker clone) on first use.
func (db *DB) registry() *standing.Registry {
	h := db.h
	if reg := h.standing.Load(); reg != nil {
		return reg
	}
	h.standingMu.Lock()
	defer h.standingMu.Unlock()
	if reg := h.standing.Load(); reg != nil {
		return reg
	}
	reg := standing.New(standingHost{db: db.Clone()}, h.standingCfg)
	// When the registry drops a subscription on its own (detach TTL,
	// failed evaluation), record the eviction so recovery does not
	// resurrect it. Set before Store publishes the registry.
	reg.OnEvict = func(id uint64) {
		if sink := h.wal.Load(); sink != nil {
			sink.appendUnsub(h.cur.Load().version, id)
		}
	}
	h.standing.Store(reg)
	return reg
}

// SetStandingConfig tunes the subscription subsystem. It takes effect
// when the registry is created — call it before the first Subscribe
// (an existing registry keeps its configuration).
func (db *DB) SetStandingConfig(cfg StandingConfig) {
	h := db.h
	h.standingMu.Lock()
	h.standingCfg = cfg
	h.standingMu.Unlock()
}

// Subscribe registers a standing query. It blocks until the initial
// result is materialised against a pinned snapshot, so the returned
// subscription's StartVersion is exact: every later change arrives as
// a Delta, in data-version order, with nothing lost between the
// baseline and the stream. Safe from any goroutine and any clone.
func (db *DB) Subscribe(req SubscribeRequest) (*Subscription, error) {
	sub, err := db.registry().Subscribe(req)
	if err != nil {
		return nil, err
	}
	// A durable database logs the registration so the subscription — and
	// its resume cursor — survives a restart (the record's key is the
	// subscription's start version; checkpoints carry the live table as
	// well, and recovery dedups by id).
	if sink := db.h.wal.Load(); sink != nil {
		if err := sink.appendSub(sub.StartVersion(), standing.SubRecord{ID: sub.ID(), Req: req}); err != nil {
			sub.Close()
			return nil, fmt.Errorf("ringrpq: wal subscribe append: %w", err)
		}
	}
	return sub, nil
}

// ResumeSubscription reattaches to a subscription after a disconnect
// (see Subscription.Detach), replaying every delta with a version
// greater than from out of the retained history. ErrResumeTooOld means
// the history no longer reaches back to from; ErrResumeFuture means
// from is beyond the processed stream.
func (db *DB) ResumeSubscription(id, from uint64) (*Subscription, error) {
	reg := db.h.standing.Load()
	if reg == nil {
		return nil, ErrUnknownSubscription
	}
	return reg.Resume(id, from)
}

// Unsubscribe removes and terminates a subscription by id, reporting
// whether it existed. On a durable database the removal is logged, so
// the subscription stays gone across restarts. (A Subscription.Close —
// e.g. a service shutting down its tracked streams — is deliberately
// not logged: a disconnected-but-not-unsubscribed client keeps its
// resume cursor across a restart.)
func (db *DB) Unsubscribe(id uint64) bool {
	reg := db.h.standing.Load()
	if reg == nil {
		return false
	}
	ok := reg.Unsubscribe(id)
	if ok {
		if sink := db.h.wal.Load(); sink != nil {
			sink.appendUnsub(db.h.cur.Load().version, id)
		}
	}
	return ok
}

// standingStats snapshots the subscription registry's counters (zero
// if nothing ever subscribed).
func (db *DB) standingStats() StandingStats {
	if reg := db.h.standing.Load(); reg != nil {
		return reg.Stats()
	}
	return StandingStats{}
}

// SyncStanding blocks until every standing subscription has been
// notified of all previously applied batches, returning the processed
// data version. It is a barrier for tests and benchmarks that need
// deltas lined up with applied batches; normal consumers just read
// Next.
func (db *DB) SyncStanding() uint64 {
	reg := db.h.standing.Load()
	if reg == nil {
		return db.DataVersion()
	}
	return reg.Sync()
}
