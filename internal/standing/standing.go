// Package standing implements standing queries: subscriptions that
// receive incremental deltas — new and retracted result pairs or rows —
// as update batches apply to the live database.
//
// The snapshot layer (the public DB's holder) calls Registry.Notify
// under its publish lock for every applied batch, so notices arrive in
// data-version order with the pre- and post-batch snapshots pinned. A
// single worker goroutine drains the notice queue and, per
// subscription, turns each batch into a delta:
//
//   - The batch is first gated by relevance: a subscription whose
//     Glushkov alphabet shares no completed predicate with the batch
//     (and that is not sensitive to dictionary growth via a nullable
//     expression) cannot change and is skipped outright.
//   - For a relevant 2RPQ subscription the affected column set is
//     computed by seeding closure probes from the batch edges: an added
//     edge can only create result pairs whose object lies in the
//     forward closure — over the expression's own alphabet — of the
//     edge's target in the new graph, and symmetrically a tombstoned
//     edge can only retract pairs whose object lies in that closure in
//     the old graph. Only those columns are re-derived (a bounded
//     const-object evaluation each) and diffed against the materialised
//     view, yielding exact additions and retractions without a full
//     re-evaluation.
//   - Graph-pattern subscriptions and expressions with negated symbol
//     classes (whose alphabet is unbounded) fall back to an
//     alphabet-gated full re-evaluation plus diff, as does any batch
//     whose affected column set exceeds maxColumns.
//
// Delivery is decoupled from evaluation: each subscription owns a
// bounded pending queue (overflow marks the subscriber lagged rather
// than blocking the worker) and a bounded delta history that serves
// resume-from-version reconnects.
package standing

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq/internal/overlay"
)

// Edge is a completed dictionary-encoded triple, exactly as the overlay
// stores it (both directions of a data edge are materialised).
type Edge = overlay.Edge

// Snapshot is an opaque pinned database snapshot owned by the Host.
type Snapshot any

// Batch is one applied update notice: the completed edges of the batch
// and the pinned snapshots on either side of it. A version advance
// without a data change (a compaction swap) carries nil snapshots and
// no edges.
type Batch struct {
	// Version is the data version the batch produced.
	Version uint64
	// Adds and Dels are the completed requested edges (both directions
	// of every data edge), before consolidation.
	Adds, Dels []Edge
	// Old and New are the snapshots before and after the batch, pinned
	// by the notifier and released by the registry worker; nil for
	// data-free version advances.
	Old, New Snapshot
}

// maxColumns bounds the affected-column set of one incremental step;
// beyond it the subscription falls back to a full re-evaluation diff
// for that batch (each affected column costs a constant-object
// evaluation, so past a few dozen the single full evaluation wins).
const maxColumns = 32

// Config tunes a Registry. The zero value picks the defaults.
type Config struct {
	// QueueDepth bounds each subscriber's pending delta queue; a
	// subscriber that falls further behind is marked lagged (see
	// ErrLagged). Default 64.
	QueueDepth int
	// History bounds the per-subscription delta history that serves
	// resume-from-version reconnects. Default 256.
	History int
	// DetachTTL is how long a detached (disconnected but resumable)
	// subscription survives before the registry drops it. Default 2m.
	DetachTTL time.Duration
	// EvalTimeout bounds each evaluation the worker runs for one
	// (subscription, batch) step; 0 means none. A timed-out step
	// terminates the subscription rather than deliver a wrong delta.
	EvalTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.History <= 0 {
		c.History = 256
	}
	if c.DetachTTL <= 0 {
		c.DetachTTL = 2 * time.Minute
	}
	return c
}

// Request registers one standing query: either a 2RPQ (Expr with
// Subject/Object endpoints, '?'-prefixed for variables, empty meaning a
// variable) or a graph pattern (Pattern, internal/query syntax).
type Request struct {
	Subject, Object string
	Expr            string
	Pattern         string
	// Snapshot asks for the current result set as the first delta.
	Snapshot bool
	// QueueDepth overrides Config.QueueDepth for this subscription.
	QueueDepth int
}

// Pair is one 2RPQ result pair in the subscription's original
// orientation.
type Pair struct {
	Subject, Object string
}

// Delta is one incremental result change, tagged with the data version
// that produced it. 2RPQ subscriptions use Added/Removed; pattern
// subscriptions use AddedRows/RemovedRows (values ordered by Vars).
type Delta struct {
	Version uint64
	Added   []Pair
	Removed []Pair

	AddedRows   [][]string
	RemovedRows [][]string
}

// Empty reports a delta with no changes.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 &&
		len(d.AddedRows) == 0 && len(d.RemovedRows) == 0
}

// Host is the evaluation surface the registry runs on. All methods are
// called from the single registry worker goroutine except Acquire,
// Release, NodeName, LookupNode, SymbolIDs and PredSym, which must be
// safe for concurrent use (they are dictionary and snapshot-holder
// reads).
type Host interface {
	// Acquire pins the current snapshot and returns it with its data
	// version; Release unpins a snapshot (also one passed in a Batch).
	Acquire() (Snapshot, uint64)
	Release(s Snapshot)
	// NumNodes is the node-dictionary length when s was published.
	NumNodes(s Snapshot) int
	// EvalRPQ evaluates a core 2RPQ (ids resolved, core.Variable for
	// unbound endpoints) against s; timeout 0 means none.
	EvalRPQ(s Snapshot, q RPQ, opts EvalOptions, emit func(subj, obj uint32) bool) error
	// EvalPattern streams the projected, deduplicated rows of q
	// against s (values ordered by q.OutVars()).
	EvalPattern(s Snapshot, q *PatternQuery, timeout time.Duration, emit func(row []string) bool) error
	// NodeName and LookupNode expose the node dictionary.
	NodeName(id uint32) string
	LookupNode(name string) (uint32, bool)
	// SymbolIDs resolves expression symbols to completed predicate
	// ids; PredSym is its inverse.
	SymbolIDs() SymbolIDs
	PredSym(c uint32) PredicateSym
}

// Subscription errors.
var (
	// ErrClosed reports an operation on a closed (or unsubscribed, or
	// registry-shutdown) subscription.
	ErrClosed = errors.New("standing: subscription closed")
	// ErrLagged reports a subscriber that overflowed its pending queue:
	// the dropped deltas remain in the history, so the subscriber
	// should resume from its last seen version.
	ErrLagged = errors.New("standing: subscriber lagged (resume from last seen version)")
	// ErrUnknownSubscription reports a resume or unsubscribe for an id
	// the registry does not hold.
	ErrUnknownSubscription = errors.New("standing: unknown subscription")
	// ErrTooOld reports a resume from a version older than the
	// subscription's retained delta history.
	ErrTooOld = errors.New("standing: resume version older than retained history")
	// ErrFutureVersion reports a resume from a version the registry has
	// not reached yet.
	ErrFutureVersion = errors.New("standing: resume version is in the future")
)

// Stats is a point-in-time snapshot of registry counters.
type Stats struct {
	// Active counts registered subscriptions (detached ones included);
	// Detached counts the resumable-but-disconnected subset; Lagged
	// counts subscribers currently marked lagged.
	Active, Detached, Lagged int
	// Version is the last data version the worker processed.
	Version uint64
	// Batches counts processed update notices. Incremental /
	// FullReevals / Skipped count per-(subscription, batch) outcomes.
	Batches, Incremental, FullReevals, Skipped int64
	// Deltas counts deltas pushed to subscribers; Overflows counts
	// deltas dropped from full pending queues (still resumable from
	// history).
	Deltas, Overflows int64
	// EvalNS accumulates worker evaluation time.
	EvalNS int64
	// Panics counts recovered worker panics (each terminates the
	// subscription it was evaluating; the worker keeps serving).
	Panics int64
}

// notice is one queue entry: a batch to diff or a subscription to
// activate (materialise its initial result against a pinned snapshot).
type notice struct {
	batch *Batch
	sub   *Sub
}

// SubRecord is one durable subscription registration — the original
// request plus its assigned id — as a write-ahead log or checkpoint
// records it.
type SubRecord struct {
	ID  uint64
	Req Request
}

// Registry owns the subscriptions of one database and the worker that
// maintains them. All methods are safe for concurrent use.
type Registry struct {
	host Host
	cfg  Config

	// OnEvict, when set, is called (outside registry locks) with the id
	// of every subscription the registry drops on its own — TTL-expired
	// detached subscriptions and subscriptions terminated by a failed or
	// panicking evaluation — so a durability layer can record the
	// eviction. Explicit Unsubscribe/Close are the caller's own actions
	// and do not trigger it. Set it before the first Subscribe.
	OnEvict func(id uint64)

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []notice
	subs       map[uint64]*Sub
	nextID     uint64
	running    bool // worker goroutine alive
	processing bool // worker inside process()
	closed     bool
	version    uint64 // last processed data version

	batches     atomic.Int64
	incremental atomic.Int64
	fullReevals atomic.Int64
	skipped     atomic.Int64
	deltas      atomic.Int64
	overflows   atomic.Int64
	evalNS      atomic.Int64
	panics      atomic.Int64
}

// New builds a registry over host. The registry runs no goroutine
// until the first subscription and stops it whenever none remain, so an
// unused registry costs nothing.
func New(host Host, cfg Config) *Registry {
	r := &Registry{host: host, cfg: cfg.withDefaults(), subs: map[uint64]*Sub{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Active reports whether any subscription is registered. The snapshot
// layer checks it before pinning snapshots for a Notify, so idle
// registries add no per-batch cost.
func (r *Registry) Active() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs) > 0 && !r.closed
}

// Notify enqueues one applied batch. The caller must invoke it under
// the same lock that serialises snapshot publication, so notices arrive
// in version order; Old/New must be pinned by the caller and are
// released by the worker.
func (r *Registry) Notify(b Batch) {
	r.mu.Lock()
	if r.closed || len(r.subs) == 0 {
		r.mu.Unlock()
		r.releaseBatch(&b)
		return
	}
	r.queue = append(r.queue, notice{batch: &b})
	r.ensureWorkerLocked()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Subscribe registers a standing query and blocks until the worker has
// materialised its initial result against a pinned snapshot (so the
// first delta is relative to a known version, returned by
// Sub.StartVersion).
func (r *Registry) Subscribe(req Request) (*Sub, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.mu.Unlock()
	s, err := r.compile(req)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.nextID++
	s.id = r.nextID
	r.subs[s.id] = s
	r.queue = append(r.queue, notice{sub: s})
	r.ensureWorkerLocked()
	r.cond.Broadcast()
	r.mu.Unlock()

	<-s.activated
	if s.actErr != nil {
		r.remove(s.id)
		return nil, s.actErr
	}
	return s, nil
}

// SnapshotSubs lists the live subscriptions in id order as durable
// records (Snapshot cleared: a recovered subscription must not replay
// its baseline). Checkpoint writers call it.
func (r *Registry) SnapshotSubs() []SubRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SubRecord, 0, len(r.subs))
	for _, s := range r.subs {
		rec := SubRecord{ID: s.id, Req: s.req}
		rec.Req.Snapshot = false
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SubscribeRecovered re-registers a subscription under its original id
// during crash recovery, leaving it detached (its consumer is gone; a
// client resumes it by id). Registering an id the registry already
// holds is a no-op, so a subscription present in both a checkpoint and
// a surviving WAL record recovers once. It blocks until the
// subscription has materialised against the current (recovered)
// snapshot; batches replayed afterwards then rebuild its delta history,
// which is what serves post-restart resumes.
func (r *Registry) SubscribeRecovered(rec SubRecord) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, ok := r.subs[rec.ID]; ok {
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	req := rec.Req
	req.Snapshot = false
	s, err := r.compile(req)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, ok := r.subs[rec.ID]; ok {
		r.mu.Unlock()
		return nil
	}
	s.id = rec.ID
	if rec.ID > r.nextID {
		r.nextID = rec.ID
	}
	r.subs[s.id] = s
	r.queue = append(r.queue, notice{sub: s})
	r.ensureWorkerLocked()
	r.cond.Broadcast()
	r.mu.Unlock()

	<-s.activated
	if s.actErr != nil {
		r.remove(s.id)
		return s.actErr
	}
	s.Detach()
	return nil
}

// Resume reattaches to subscription id, replaying every delta with a
// version greater than from into its pending queue and clearing any
// lag. A subscription being resumed must have one consumer at a time.
func (r *Registry) Resume(id, from uint64) (*Sub, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	s := r.subs[id]
	cur := r.version
	r.mu.Unlock()
	if s == nil {
		return nil, ErrUnknownSubscription
	}
	// r.version lags applied batches still in the notice queue, so a
	// client resuming from a delta version it legitimately received
	// mid-batch could be rejected as "future"; bound the check with the
	// host's current data version, which every delivered delta is ≤.
	if r.host != nil {
		snap, hv := r.host.Acquire()
		r.host.Release(snap)
		if hv > cur {
			cur = hv
		}
	}
	if err := s.resume(from, cur); err != nil {
		return nil, err
	}
	return s, nil
}

// Unsubscribe removes and terminates subscription id.
func (r *Registry) Unsubscribe(id uint64) bool {
	r.mu.Lock()
	s := r.subs[id]
	r.mu.Unlock()
	if s == nil {
		return false
	}
	s.Close()
	return true
}

// remove deletes id from the table (waking the worker so it can park or
// exit) and reports whether it was present.
func (r *Registry) remove(id uint64) bool {
	r.mu.Lock()
	_, ok := r.subs[id]
	delete(r.subs, id)
	r.cond.Broadcast()
	r.mu.Unlock()
	return ok
}

// Close terminates every subscription and shuts the registry down;
// further Subscribes fail with ErrClosed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	dropped := r.queue
	r.queue = nil
	subs := make([]*Sub, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.subs = map[uint64]*Sub{}
	r.cond.Broadcast()
	r.mu.Unlock()

	for _, n := range dropped {
		if n.batch != nil {
			r.releaseBatch(n.batch)
		}
		if n.sub != nil {
			n.sub.finishActivation(ErrClosed)
		}
	}
	for _, s := range subs {
		s.terminate(ErrClosed)
	}
}

// Sync blocks until the notice queue is drained and returns the last
// processed data version (tests and benchmarks use it to line deltas up
// with applied batches).
func (r *Registry) Sync() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for (len(r.queue) > 0 || r.processing) && !r.closed {
		r.cond.Wait()
	}
	return r.version
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	st := Stats{Active: len(r.subs), Version: r.version}
	subs := make([]*Sub, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		if s.detached {
			st.Detached++
		}
		if s.lagged {
			st.Lagged++
		}
		s.mu.Unlock()
	}
	st.Batches = r.batches.Load()
	st.Incremental = r.incremental.Load()
	st.FullReevals = r.fullReevals.Load()
	st.Skipped = r.skipped.Load()
	st.Deltas = r.deltas.Load()
	st.Overflows = r.overflows.Load()
	st.EvalNS = r.evalNS.Load()
	st.Panics = r.panics.Load()
	return st
}

// ensureWorkerLocked starts the worker if it is not running; callers
// hold r.mu.
func (r *Registry) ensureWorkerLocked() {
	if !r.running {
		r.running = true
		go r.run()
	}
}

// run is the worker loop: it drains the notice queue and exits when no
// subscriptions remain (restarted on demand), so an idle registry
// leaks no goroutine.
func (r *Registry) run() {
	r.mu.Lock()
	for {
		for len(r.queue) == 0 {
			if len(r.subs) == 0 || r.closed {
				r.running = false
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			r.cond.Wait()
		}
		n := r.queue[0]
		r.queue[0] = notice{}
		r.queue = r.queue[1:]
		r.processing = true
		r.mu.Unlock()

		r.process(n)

		r.mu.Lock()
		r.processing = false
		r.cond.Broadcast()
	}
}

// process handles one notice outside the registry lock. The recover is
// a backstop for panics outside the per-subscription steps (which have
// their own): the worker must survive any single notice.
func (r *Registry) process(n notice) {
	t0 := time.Now()
	defer func() { r.evalNS.Add(time.Since(t0).Nanoseconds()) }()
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			if n.sub != nil {
				n.sub.finishActivation(fmt.Errorf("standing: activation panicked: %v", p))
			}
		}
	}()
	if n.sub != nil {
		r.activate(n.sub)
		return
	}
	b := n.batch
	defer r.releaseBatch(b)
	r.batches.Add(1)
	for _, s := range r.liveSubs() {
		r.processSub(s, b)
	}
	r.mu.Lock()
	if b.Version > r.version {
		r.version = b.Version
	}
	r.mu.Unlock()
	r.pruneDetached()
}

// liveSubs snapshots the subscription table in id order (deterministic
// processing order; stable across runs for a given update sequence).
func (r *Registry) liveSubs() []*Sub {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Sub, 0, len(r.subs))
	for _, s := range r.subs {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].id > out[j].id; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// activate materialises a new subscription's initial result. A panic
// in the evaluation fails the Subscribe call instead of killing the
// worker.
func (r *Registry) activate(s *Sub) {
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			r.remove(s.id)
			s.finishActivation(fmt.Errorf("standing: activation panicked: %v", p))
		}
	}()
	snap, ver := r.host.Acquire()
	defer r.host.Release(snap)
	if err := r.materialize(s, snap); err != nil {
		s.finishActivation(err)
		return
	}
	s.since = ver
	s.startVer = ver
	s.ready = true
	r.mu.Lock()
	if ver > r.version {
		r.version = ver
	}
	r.mu.Unlock()
	s.mu.Lock()
	s.histFloor = ver
	s.mu.Unlock()
	if s.wantSnapshot {
		// The baseline delta is pushed even when empty so the
		// subscriber knows the initial state is complete.
		d := s.currentAsDelta(r, ver)
		s.push(r, d, true)
	}
	s.finishActivation(nil)
}

// processSub maintains one subscription across one batch; a failed or
// panicking evaluation terminates the subscription (a silent skip
// would deliver wrong deltas forever after), leaving the worker and
// every other subscription serving.
func (r *Registry) processSub(s *Sub, b *Batch) {
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			r.remove(s.id)
			s.terminate(fmt.Errorf("standing: subscription %d panicked at version %d: %v", s.id, b.Version, p))
			r.evict(s.id)
		}
	}()
	// A subscription whose activation notice is still queued behind
	// this batch has no materialised state yet (cols/rows are nil);
	// skip it — its activation snapshot, pinned later, already
	// includes this batch, and b.Version <= s.since then keeps any
	// re-delivery out.
	if !s.ready || s.isTerminated() || b.Version <= s.since {
		return
	}
	s.since = b.Version
	if b.New == nil {
		// A data-free version advance (compaction swap): results
		// cannot change.
		return
	}
	d := Delta{Version: b.Version}
	var err error
	if s.isPattern {
		err = r.patternDelta(s, b, &d)
	} else {
		err = r.rpqDelta(s, b, &d)
	}
	if err != nil {
		r.remove(s.id)
		s.terminate(fmt.Errorf("standing: subscription %d failed at version %d: %w", s.id, b.Version, err))
		r.evict(s.id)
		return
	}
	if !d.Empty() {
		sortDelta(&d)
		s.push(r, d, false)
	}
}

// releaseBatch unpins a batch's snapshots.
func (r *Registry) releaseBatch(b *Batch) {
	if b.Old != nil {
		r.host.Release(b.Old)
	}
	if b.New != nil {
		r.host.Release(b.New)
	}
}

// pruneDetached drops detached subscriptions past their TTL; called
// from the worker after each batch, so an idle registry prunes lazily
// (a detached subscription on a quiet database costs only its history).
func (r *Registry) pruneDetached() {
	var expired []*Sub
	now := time.Now()
	r.mu.Lock()
	for _, s := range r.subs {
		s.mu.Lock()
		if s.detached && now.Sub(s.detachedAt) > r.cfg.DetachTTL {
			expired = append(expired, s)
		}
		s.mu.Unlock()
	}
	for _, s := range expired {
		delete(r.subs, s.id)
	}
	if len(expired) > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	for _, s := range expired {
		s.terminate(ErrClosed)
		r.evict(s.id)
	}
}

// evict reports a registry-initiated drop to the durability hook.
func (r *Registry) evict(id uint64) {
	if fn := r.OnEvict; fn != nil {
		fn(id)
	}
}
