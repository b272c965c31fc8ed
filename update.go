package ringrpq

// This file is the snapshot layer of the live-update subsystem: the
// holder publishes immutable snapshots (static ring + one overlay
// version), Apply folds updates into a new snapshot, and the
// compactor merges the overlay into a new static index and swaps it in
// atomically. Queries pin the snapshot they start on (epoch +
// refcount), so an in-flight evaluation — including one on a service
// worker clone — is never torn by a concurrent Apply or swap.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq/internal/obs"
	"ringrpq/internal/overlay"
	"ringrpq/internal/ring"
	"ringrpq/internal/standing"
	"ringrpq/internal/triples"
)

// Triple is one update triple in string form (the form Builder.Add
// takes).
type Triple struct {
	Subject, Predicate, Object string
}

// ErrUnknownPredicate reports an added triple whose predicate was not
// part of the graph at build time. The completed predicate id space
// (p̂ = p + |P|) is frozen when the ring is built, so new predicates
// require a rebuild through a Builder; new *nodes* are fine and are
// interned on the fly.
var ErrUnknownPredicate = errors.New("ringrpq: unknown predicate in update (the predicate set is fixed at build time)")

// UpdateStats describes the live-update state of a database.
type UpdateStats struct {
	// OverlayEdges and Tombstones are the completed adds and deletes
	// pending in the overlay (2× the data edges).
	OverlayEdges, Tombstones int
	// Epoch counts atomic snapshot swaps (compactions); DataVersion
	// counts every visible data change (applies and swaps).
	Epoch, DataVersion uint64
	// Compactions is the number of completed compactions; Compacting
	// reports one in flight.
	Compactions int64
	Compacting  bool
	// LastCompaction is the wall time of the last merge of the
	// overlay into the ring (outside the swap lock); LastSwapPause is
	// the last swap's critical section — the only window concurrent
	// Applies wait on. LastCheckpoint is what a durable database then
	// spent making the merged ring durable (serialise, write, fsync,
	// rename), whether or not the checkpoint succeeded; zero without a
	// write-ahead log.
	LastCompaction, LastSwapPause, LastCheckpoint time.Duration
	// PinnedSnapshots counts snapshots still referenced by in-flight
	// queries (including the current one).
	PinnedSnapshots int
	// ReplayBatches is the depth of the overlay's replay log: update
	// batches retained for compaction replay.
	ReplayBatches int
}

// snapshot is one immutable (static ring, overlay) pair.
type snapshot struct {
	r  *ring.Ring
	ov *overlay.Overlay

	epoch    uint64
	version  uint64
	numNodes int // node dictionary length when published

	refs atomic.Int64
}

// inStatic reports membership of a completed edge in the static ring.
func (s *snapshot) inStatic(e overlay.Edge) bool {
	return s.r.Has(e.S, e.P, e.O)
}

// holder is the mutable cell shared by a DB and all its clones.
type holder struct {
	mu  sync.Mutex // serialises Apply and the swap critical section
	cur atomic.Pointer[snapshot]

	compactMu  sync.Mutex // serialises whole compactions
	compacting atomic.Bool
	// compactBase is the data version of the in-flight compaction's
	// base snapshot, or -1 when none: the overlay's replay log only
	// needs batches newer than it (they are replayed onto the merged
	// ring at swap time), so Apply prunes everything older.
	compactBase atomic.Int64

	threshold atomic.Int64 // 0 = automatic, < 0 = disabled

	compactions      atomic.Int64
	lastMergeNS      atomic.Int64
	lastSwapNS       atomic.Int64
	lastCheckpointNS atomic.Int64

	// live tracks published-but-possibly-pinned snapshots for the
	// PinnedSnapshots stat; entries are pruned once unpinned.
	liveMu sync.Mutex
	live   []*snapshot

	// standing is the registry of standing-query subscriptions, created
	// lazily on the first Subscribe and shared by every clone. Apply and
	// the compaction swap notify it under h.mu, so notices arrive in
	// publication order with the batch's snapshots pinned.
	standingMu  sync.Mutex
	standing    atomic.Pointer[standing.Registry]
	standingCfg standing.Config

	// wal, when set (OpenDurable), is the durability sink: Apply appends
	// each batch under h.mu before publishing it, and the compactor
	// checkpoints and truncates the log.
	wal atomic.Pointer[walSink]
}

// compactStageHook, when set by a test, is called at compaction stage
// boundaries ("base-selected", "rebuilt" once the merged ring is
// ready, "swapped", "checkpointed", "truncated"). Every call site is
// outside h.mu, so a hook may apply updates to interleave them with
// the stages.
var compactStageHook func(stage string)

func stageHook(stage string) {
	if compactStageHook != nil {
		compactStageHook(stage)
	}
}

// newHolder publishes the initial snapshot.
func newHolder(r *ring.Ring, numNodes int) *holder {
	h := &holder{}
	h.compactBase.Store(-1)
	s := &snapshot{r: r, ov: overlay.New(), numNodes: numNodes}
	h.cur.Store(s)
	h.live = []*snapshot{s}
	return h
}

// acquire pins the current snapshot for one evaluation.
func (h *holder) acquire() *snapshot {
	for {
		s := h.cur.Load()
		s.refs.Add(1)
		if h.cur.Load() == s {
			return s
		}
		// A swap raced the pin; retry on the new snapshot.
		s.refs.Add(-1)
	}
}

// release unpins a snapshot.
func (h *holder) release(s *snapshot) { s.refs.Add(-1) }

// publish swaps in a new snapshot; callers hold h.mu.
func (h *holder) publish(s *snapshot) {
	h.cur.Store(s)
	h.liveMu.Lock()
	kept := h.live[:0]
	for _, old := range h.live {
		if old.refs.Load() > 0 {
			kept = append(kept, old)
		}
	}
	h.live = append(kept, s)
	h.liveMu.Unlock()
}

func (h *holder) pinned() int {
	h.liveMu.Lock()
	defer h.liveMu.Unlock()
	n := 0
	for _, s := range h.live {
		if s.refs.Load() > 0 || s == h.cur.Load() {
			n++
		}
	}
	return n
}

// effectiveThreshold resolves the compaction trigger for a given
// static index size.
func (h *holder) effectiveThreshold(staticN int) int {
	t := h.threshold.Load()
	if t < 0 {
		return 0 // disabled
	}
	if t > 0 {
		return int(t)
	}
	auto := staticN / 4
	if auto < 1024 {
		auto = 1024
	}
	return auto
}

// SetCompactionThreshold tunes the background compactor: the overlay
// weight (completed adds + tombstones) that triggers a compaction. 0
// restores the default (a quarter of the static triple count, at least
// 1024); a negative value disables automatic compaction (Flush still
// compacts on demand). Safe to call concurrently with queries and
// updates; shared with every clone.
func (db *DB) SetCompactionThreshold(n int) {
	db.h.threshold.Store(int64(n))
}

// updateStats snapshots the live-update counters.
func (db *DB) updateStats() UpdateStats {
	s := db.h.cur.Load()
	return UpdateStats{
		OverlayEdges:    s.ov.AddCount(),
		Tombstones:      s.ov.DelCount(),
		Epoch:           s.epoch,
		DataVersion:     s.version,
		Compactions:     db.h.compactions.Load(),
		Compacting:      db.h.compacting.Load(),
		LastCompaction:  time.Duration(db.h.lastMergeNS.Load()),
		LastSwapPause:   time.Duration(db.h.lastSwapNS.Load()),
		LastCheckpoint:  time.Duration(db.h.lastCheckpointNS.Load()),
		PinnedSnapshots: db.h.pinned(),
		ReplayBatches:   s.ov.BatchCount(),
	}
}

// DataVersion reports the current data version: it advances on every
// Apply and every compaction swap. Result caches key their entries to
// it (see the service layer).
func (db *DB) DataVersion() uint64 { return db.h.cur.Load().version }

// predsOf validates added triples' predicates without touching the
// node dictionary: a rejected batch must leave no trace, and a batch
// must be known-valid before it is appended to the write-ahead log.
// Unknown predicates fail the whole batch (phantom nodes from a
// partially-resolved one would otherwise surface as spurious nullable
// self-pairs in later queries).
func (db *DB) predsOf(adds []Triple) ([]uint32, error) {
	preds := make([]uint32, len(adds))
	for i, t := range adds {
		p, ok := db.g.Preds.Lookup(t.Predicate)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownPredicate, t.Predicate)
		}
		preds[i] = p
	}
	return preds, nil
}

// internAdds interns and completes added triples whose predicates were
// validated by predsOf. Apply calls it under h.mu, after the batch's
// WAL append succeeded: interning order then matches batch-version
// order exactly, which is what makes recovery's replay re-assign the
// same dictionary ids (Dict.Intern numbers names by first appearance).
func (db *DB) internAdds(adds []Triple, preds []uint32) []overlay.Edge {
	np := db.g.NumPreds
	out := make([]overlay.Edge, 0, 2*len(adds))
	for i, t := range adds {
		p := preds[i]
		s := db.g.Nodes.Intern(t.Subject)
		o := db.g.Nodes.Intern(t.Object)
		out = append(out,
			overlay.Edge{S: s, P: p, O: o},
			overlay.Edge{S: o, P: p + np, O: s})
	}
	return out
}

// resolveDels completes deleted triples; names never seen are no-ops.
func (db *DB) resolveDels(dels []Triple) []overlay.Edge {
	np := db.g.NumPreds
	out := make([]overlay.Edge, 0, 2*len(dels))
	for _, t := range dels {
		p, ok := db.g.Preds.Lookup(t.Predicate)
		if !ok {
			continue
		}
		s, ok := db.g.Nodes.Lookup(t.Subject)
		if !ok {
			continue
		}
		o, ok := db.g.Nodes.Lookup(t.Object)
		if !ok {
			continue
		}
		out = append(out,
			overlay.Edge{S: s, P: p, O: o},
			overlay.Edge{S: o, P: p + np, O: s})
	}
	return out
}

// Apply atomically applies one update batch: adds then dels (within
// one batch a delete wins over an add of the same triple). New node
// names are interned; new predicate names are rejected with
// ErrUnknownPredicate (the completed id space is frozen at build
// time). Deletes of absent triples are no-ops.
//
// Queries running concurrently — directly on clones or through a
// Service — are unaffected: each evaluation pins the snapshot it
// started on and the update becomes visible to evaluations that start
// afterwards. Apply is safe to call from any goroutine and any clone;
// batches are serialised internally. When the overlay crosses the
// compaction threshold a background compaction is kicked off (see
// SetCompactionThreshold and Flush).
//
// ctx may carry an obs.Trace: profiled updates record wal_append,
// standing_notify and wal_fsync spans. It does not cancel the apply: a
// batch is atomic, and a cancelled ctx applies it all the same.
func (db *DB) Apply(ctx context.Context, adds, dels []Triple) (UpdateStats, error) {
	tr := obs.FromContext(ctx)
	preds, err := db.predsOf(adds)
	if err != nil {
		return db.updateStats(), err
	}
	h := db.h
	// Encode the WAL record outside the lock; the triples are the
	// caller's and the encoding does not depend on holder state.
	var rec []byte
	if h.wal.Load() != nil {
		rec = encodeBatchRecord(adds, dels)
	}

	h.mu.Lock()
	cur := h.cur.Load()
	var lsn uint64
	sink := h.wal.Load()
	if sink != nil {
		if rec == nil {
			rec = encodeBatchRecord(adds, dels)
		}
		asp := tr.Begin(obs.SpanWALAppend)
		lsn, err = sink.log.Append(cur.version+1, rec)
		tr.EndVals(asp, int64(len(rec)))
		if err != nil {
			// Nothing interned, nothing published: the batch never
			// happened. The wedged log fails every later Apply too.
			h.mu.Unlock()
			return db.updateStats(), fmt.Errorf("ringrpq: wal append: %w", err)
		}
	}
	addEdges := db.internAdds(adds, preds)
	delEdges := db.resolveDels(dels)
	ov := cur.ov.Apply(cur.version+1, addEdges, delEdges, cur.inStatic)
	// Bound the replay log: batches are only ever replayed by a
	// compaction whose base predates them, and the only base that can
	// predate already-applied batches is the in-flight one.
	keepAfter := ^uint64(0)
	if base := h.compactBase.Load(); base >= 0 {
		keepAfter = uint64(base)
	}
	ov = ov.WithBatchesAfter(keepAfter)
	next := &snapshot{
		r: cur.r, ov: ov,
		epoch:    cur.epoch,
		version:  cur.version + 1,
		numNodes: db.g.NumNodes(),
	}
	h.publish(next)
	// Standing queries see every batch in publication order: pin both
	// sides of the transition for the registry worker (released there).
	if reg := h.standing.Load(); reg != nil && reg.Active() {
		cur.refs.Add(1)
		next.refs.Add(1)
		nsp := tr.Begin(obs.SpanStandingNotify)
		reg.Notify(standing.Batch{
			Version: next.version,
			Adds:    addEdges, Dels: delEdges,
			Old: cur, New: next,
		})
		tr.End(nsp)
	}
	h.mu.Unlock()

	if sink != nil && sink.ackSync {
		// Ack-after-fsync: the batch is already visible in memory, but
		// the caller's acknowledgement waits for durability. On failure
		// the log is wedged, so every later Apply fails before
		// publishing — the in-memory suffix past the last durable batch
		// never grows beyond this one batch.
		fsp := tr.Begin(obs.SpanWALFsync)
		err := sink.log.Sync(lsn)
		tr.End(fsp)
		if err != nil {
			return db.updateStats(), fmt.Errorf("ringrpq: wal fsync: %w", err)
		}
	}

	if t := h.effectiveThreshold(next.r.N); t > 0 && ov.Weight() >= t {
		if h.compacting.CompareAndSwap(false, true) {
			go func() {
				defer h.compacting.Store(false)
				db.compactNow()
			}()
		}
	}
	return db.updateStats(), nil
}

// Flush synchronously compacts: it merges the overlay into a new
// static index, swaps the snapshot atomically, and returns once the
// swap is visible. A no-op when the overlay is empty. Concurrent
// queries are never blocked by the merge — only the pointer swap
// itself is serialised with Apply.
func (db *DB) Flush() error {
	db.compactNow()
	return nil
}

// compactNow runs one compaction cycle end to end: select the base
// snapshot, merge its overlay into its ring (ring.Ring.Merge: the
// tombstones leave and the adds enter each wavelet matrix level by
// level, with rank queries per overlay edge and a word-at-a-time copy
// per level, and no decode of the ring's triples), fold the batches
// that raced the merge into a residual overlay, swap, and checkpoint.
func (db *DB) compactNow() {
	h := db.h
	h.compactMu.Lock()
	defer h.compactMu.Unlock()

	// Select the base under the holder lock so Apply's replay-log
	// pruning can never race past it, and advertise it until the swap.
	h.mu.Lock()
	base := h.cur.Load()
	h.compactBase.Store(int64(base.version))
	h.mu.Unlock()
	defer h.compactBase.Store(-1)
	if base.ov.Empty() {
		return
	}
	stageHook("base-selected")
	// Merge at the base snapshot's dictionary length, not the current
	// one: the checkpoint written below pairs this ring with exactly the
	// first numNodes dictionary entries, and every node the base's
	// overlay references is below it. Nodes interned by batches that
	// race the merge stay overlay-only until the next compaction. The
	// overlay's invariants are what the merge needs: its adds are
	// absent from the ring and its tombstones present.
	numNodes := base.numNodes
	t0 := time.Now()
	newR := base.r.Merge(edgeTriples(base.ov.Adds()), edgeTriples(base.ov.Dels()), numNodes)
	h.lastMergeNS.Store(time.Since(t0).Nanoseconds())
	stageHook("rebuilt")

	inNew := func(e overlay.Edge) bool { return newR.Has(e.S, e.P, e.O) }

	// Updates that raced the merge are folded into a residual overlay
	// against the new ring. Each of their edges costs a probe of a ring
	// no cache has seen yet, so those published so far are folded here,
	// before the lock, and only the stragglers under it.
	seen := h.cur.Load()
	residual := overlay.New().Replay(seen.ov.BatchesAfter(base.ov.Version()), inNew)

	// Swap critical section: fold the stragglers, then publish. This is
	// the only pause concurrent Applies observe; queries never block
	// (they pin whatever snapshot is current when they start).
	t1 := time.Now()
	h.mu.Lock()
	latest := h.cur.Load()
	sink := h.wal.Load()
	if sink != nil {
		// The swap consumes a version; log it so recovery's replay stays
		// gapless. An append failure aborts the swap (the merged ring is
		// discarded; memory and log stay consistent).
		if _, err := sink.log.Append(latest.version+1, encodeSwapRecord()); err != nil {
			h.mu.Unlock()
			return
		}
	}
	residual = residual.Replay(latest.ov.BatchesAfter(seen.ov.Version()), inNew)
	next := &snapshot{
		r: newR, ov: residual,
		epoch:   latest.epoch + 1,
		version: latest.version + 1,
		// Batches between base and latest may have grown the dictionary
		// past the merged ring; their edges live in the residual and the
		// kernel sizes itself by the snapshot's numNodes.
		numNodes: latest.numNodes,
	}
	h.publish(next)
	// A swap changes no data, but subscriptions must observe the version
	// advance (resume cursors line up with DataVersion).
	if reg := h.standing.Load(); reg != nil && reg.Active() {
		reg.Notify(standing.Batch{Version: next.version})
	}
	h.mu.Unlock()
	h.lastSwapNS.Store(time.Since(t1).Nanoseconds())
	h.compactions.Add(1)
	stageHook("swapped")

	// Old-ring selectivity statistics are garbage now.
	db.sel.Retain(newR)

	if sink != nil {
		// Checkpoint the merged ring (all data ≤ base.version,
		// consolidated) and drop the log segments it fully covers. A
		// checkpoint failure is not fatal: the log still holds every
		// batch since the previous checkpoint, so recovery just replays
		// more.
		t2 := time.Now()
		err := db.writeCheckpoint(sink, newR, base.version, numNodes)
		h.lastCheckpointNS.Store(time.Since(t2).Nanoseconds())
		if err != nil {
			sink.checkpointErrs.Add(1)
			return
		}
		sink.checkpoints.Add(1)
		sink.lastCheckpoint.Store(base.version)
		stageHook("checkpointed")
		if err := sink.log.TruncateBefore(base.version); err != nil {
			// Segments the checkpoint covers survive to the next
			// compaction; recovery just replays more.
			sink.checkpointErrs.Add(1)
		}
		stageHook("truncated")
	}
}

// edgeTriples converts overlay edges to ring triples.
func edgeTriples(es []overlay.Edge) []triples.Triple {
	out := make([]triples.Triple, len(es))
	for i, e := range es {
		out[i] = triples.Triple(e)
	}
	return out
}
