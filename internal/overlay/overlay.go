// Package overlay implements the live-update subsystem: an in-memory
// dynamic triple overlay — sorted adds plus tombstones over the static
// ring — and an evaluator that makes queries see
//
//	ring ∪ adds − dels
//
// behind the ordinary core.Evaluator interface (the union traversal
// itself is core's multi-ring kernel, which reads an Overlay through
// the core.Delta seam). The ring index of the
// paper is static by construction (three sorted sequences cannot absorb
// an insertion), so mutability is layered on top LSM-style: updates
// accumulate in the overlay, every evaluation unions them in, and a
// compactor (the snapshot layer above, see the public DB) periodically
// rebuilds the ring from ring+overlay and swaps it in atomically.
//
// An Overlay value is immutable: Apply returns a new version, so a
// query (or a whole snapshot) holding one is isolated from later
// updates for free. The overlay stays small — the compaction threshold
// bounds it — which keeps both the copy-on-apply cost and the union
// evaluation overhead bounded.
package overlay

import (
	"sort"

	"ringrpq/internal/core"
	"ringrpq/internal/ring"
)

// Edge is a completed dictionary-encoded triple (both directions of a
// data edge are materialised, exactly as in the static ring).
type Edge = core.Edge

var _ core.Delta = (*Overlay)(nil)

// Batch is one applied update set, kept verbatim (completed, deduped)
// so a compactor can replay updates that arrived while it was
// rebuilding against the new ring.
type Batch struct {
	// Version is the data version this batch produced.
	Version uint64
	// Adds and Dels are the completed requested edges, before
	// consolidation against the then-current overlay and ring.
	Adds, Dels []Edge
}

// Overlay is one immutable version of the dynamic layer. The zero
// value is not meaningful; use New.
//
// Invariants: adds ∩ static = ∅ (an add of a present edge is a no-op,
// unless it revives a tombstone), dels ⊆ static (a delete of an absent
// edge is a no-op), adds ∩ dels = ∅. Both sets are sorted by (O, P, S)
// — object-major, because the engine's backward traversal asks for the
// in-edges of an object.
type Overlay struct {
	adds []Edge
	dels []Edge
	// delsPS and addsPS mirror dels/adds sorted by (P, S, O): the
	// engine's full-range phase needs "how many targets of (s, p, ·)
	// are tombstoned", and the §5-style fast paths scan adds
	// predicate-major.
	delsPS []Edge
	addsPS []Edge

	// batches is the replay log since the static snapshot was built;
	// BatchesAfter serves the compactor's residual-overlay rebuild.
	batches []Batch
	version uint64

	// predTouch counts adds+dels per completed predicate id: the union
	// engine delegates to the static engine when a query's predicates
	// are untouched. predDels counts only tombstones, letting the
	// engine skip per-edge deletion probes for predicates nothing was
	// deleted from.
	predTouch map[uint32]int
	predDels  map[uint32]int
	// maxNode is 1 + the largest node id any add mentions.
	maxNode uint32
}

// New returns an empty overlay at version 0.
func New() *Overlay {
	return &Overlay{predTouch: map[uint32]int{}, predDels: map[uint32]int{}}
}

// cmpEdge orders edges by (O, P, S).
func cmpEdge(a, b Edge) int {
	switch {
	case a.O != b.O:
		if a.O < b.O {
			return -1
		}
		return 1
	case a.P != b.P:
		if a.P < b.P {
			return -1
		}
		return 1
	case a.S != b.S:
		if a.S < b.S {
			return -1
		}
		return 1
	}
	return 0
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool { return cmpEdge(es[i], es[j]) < 0 })
}

// find locates e in the sorted slice.
func find(es []Edge, e Edge) bool {
	i := sort.Search(len(es), func(i int) bool { return cmpEdge(es[i], e) >= 0 })
	return i < len(es) && es[i] == e
}

// Apply returns a new overlay version with the batch folded in.
// inStatic reports membership in the static ring the overlay shadows;
// it decides whether a delete becomes a tombstone (edge in the ring)
// or cancels a pending add. Within one batch, deletes are applied
// after adds. version must exceed the current version (the snapshot
// layer allocates them monotonically).
func (o *Overlay) Apply(version uint64, adds, dels []Edge, inStatic func(Edge) bool) *Overlay {
	addSet := make(map[Edge]bool, len(o.adds)+len(adds))
	for _, e := range o.adds {
		addSet[e] = true
	}
	delSet := make(map[Edge]bool, len(o.dels)+len(dels))
	for _, e := range o.dels {
		delSet[e] = true
	}
	for _, e := range adds {
		if delSet[e] {
			// Revive a tombstoned static edge.
			delete(delSet, e)
			continue
		}
		if inStatic(e) || addSet[e] {
			continue // already visible
		}
		addSet[e] = true
	}
	for _, e := range dels {
		if addSet[e] {
			delete(addSet, e)
			continue
		}
		if inStatic(e) {
			delSet[e] = true
		}
		// Absent edge: no-op.
	}

	n := &Overlay{
		adds:      make([]Edge, 0, len(addSet)),
		dels:      make([]Edge, 0, len(delSet)),
		version:   version,
		predTouch: make(map[uint32]int, len(addSet)+len(delSet)),
		predDels:  make(map[uint32]int, len(delSet)),
	}
	for e := range addSet {
		n.adds = append(n.adds, e)
	}
	for e := range delSet {
		n.dels = append(n.dels, e)
	}
	sortEdges(n.adds)
	sortEdges(n.dels)
	n.delsPS = append([]Edge(nil), n.dels...)
	sort.Slice(n.delsPS, func(i, j int) bool { return cmpEdgePS(n.delsPS[i], n.delsPS[j]) < 0 })
	n.addsPS = append([]Edge(nil), n.adds...)
	sort.Slice(n.addsPS, func(i, j int) bool { return cmpEdgePS(n.addsPS[i], n.addsPS[j]) < 0 })
	for _, e := range n.adds {
		n.predTouch[e.P]++
		if e.S >= n.maxNode {
			n.maxNode = e.S + 1
		}
		if e.O >= n.maxNode {
			n.maxNode = e.O + 1
		}
	}
	for _, e := range n.dels {
		n.predTouch[e.P]++
		n.predDels[e.P]++
	}
	n.batches = append(append([]Batch(nil), o.batches...), Batch{
		Version: version,
		Adds:    append([]Edge(nil), adds...),
		Dels:    append([]Edge(nil), dels...),
	})
	return n
}

// Empty reports whether the overlay changes nothing.
func (o *Overlay) Empty() bool { return len(o.adds) == 0 && len(o.dels) == 0 }

// AddCount is the number of live overlay edges (completed).
func (o *Overlay) AddCount() int { return len(o.adds) }

// DelCount is the number of tombstones (completed).
func (o *Overlay) DelCount() int { return len(o.dels) }

// Weight is the consolidated overlay size the compaction threshold is
// compared against.
func (o *Overlay) Weight() int { return len(o.adds) + len(o.dels) }

// Version is the data version of the last applied batch.
func (o *Overlay) Version() uint64 { return o.version }

// MaxNode is 1 + the largest node id mentioned by an overlay add (0
// when there are none): the union engine sizes its visited arrays by
// max(ring nodes, MaxNode).
func (o *Overlay) MaxNode() uint32 { return o.maxNode }

// cmpEdgePS orders edges by (P, S, O).
func cmpEdgePS(a, b Edge) int {
	switch {
	case a.P != b.P:
		if a.P < b.P {
			return -1
		}
		return 1
	case a.S != b.S:
		if a.S < b.S {
			return -1
		}
		return 1
	case a.O != b.O:
		if a.O < b.O {
			return -1
		}
		return 1
	}
	return 0
}

// Deleted reports whether the static edge e is tombstoned.
func (o *Overlay) Deleted(e Edge) bool { return find(o.dels, e) }

// DelsForPred counts the tombstones carrying completed predicate p;
// zero lets the engine skip per-edge deletion probes entirely.
func (o *Overlay) DelsForPred(p uint32) int { return o.predDels[p] }

// runPS returns the run of es (sorted by (P, S, O)) carrying predicate
// p — and subject s, unless anyS is set — by two binary searches.
func runPS(es []Edge, p, s uint32, anyS bool) []Edge {
	lo := sort.Search(len(es), func(i int) bool {
		return cmpEdgePS(es[i], Edge{P: p, S: s}) >= 0
	})
	rest := es[lo:]
	hi := sort.Search(len(rest), func(i int) bool {
		return rest[i].P != p || !anyS && rest[i].S != s
	})
	return rest[:hi]
}

// AddsByPred returns the live adds with completed predicate p, sorted
// by (S, O). Like every slice an Overlay hands out, it is a read-only
// view.
func (o *Overlay) AddsByPred(p uint32) []Edge { return runPS(o.addsPS, p, 0, true) }

// AddsByPredSubject returns the live adds (s, p, ·), sorted by object.
func (o *Overlay) AddsByPredSubject(p, s uint32) []Edge { return runPS(o.addsPS, p, s, false) }

// DeletedPS counts the tombstones with predicate p and subject s (the
// full-range step compares it with the subject's multiplicity to
// decide whether any (s, p, ·) edge survives).
func (o *Overlay) DeletedPS(p, s uint32) int { return len(runPS(o.delsPS, p, s, false)) }

// Has reports whether e is a live overlay add.
func (o *Overlay) Has(e Edge) bool { return find(o.adds, e) }

// TouchesPred reports whether any add or tombstone carries completed
// predicate p.
func (o *Overlay) TouchesPred(p uint32) bool { return o.predTouch[p] > 0 }

// TouchedPreds returns the set of completed predicate ids the overlay
// mentions (the compactor rebuilds only their shards).
func (o *Overlay) TouchedPreds() []uint32 {
	out := make([]uint32, 0, len(o.predTouch))
	for p := range o.predTouch {
		out = append(out, p)
	}
	return out
}

// Adds returns every live overlay add, sorted by (O, P, S).
func (o *Overlay) Adds() []Edge { return o.adds }

// Dels returns every tombstone, sorted by (O, P, S).
func (o *Overlay) Dels() []Edge { return o.dels }

// AddsInto returns the overlay adds entering object obj, in (P, S)
// order: the backward step unions these with the static ring's object
// range.
func (o *Overlay) AddsInto(obj uint32) []Edge {
	lo := sort.Search(len(o.adds), func(i int) bool { return o.adds[i].O >= obj })
	hi := lo
	for hi < len(o.adds) && o.adds[hi].O == obj {
		hi++
	}
	return o.adds[lo:hi]
}

// EachInEdge streams the union in-edges of object o as (p, s) pairs:
// every sub-ring's object range (tombstones dropped) followed by the
// overlay's adds. Return false to stop.
func EachInEdge(rings []*ring.Ring, ov *Overlay, o uint32, fn func(p, s uint32) bool) bool {
	return core.EachInEdge(rings, ov, o, fn)
}

// BatchesAfter returns the applied batches with Version > v, oldest
// first: the updates a finishing compaction must replay against the
// ring it just built.
func (o *Overlay) BatchesAfter(v uint64) []Batch {
	i := sort.Search(len(o.batches), func(i int) bool { return o.batches[i].Version > v })
	return o.batches[i:]
}

// WithBatchesAfter returns an overlay identical to o but whose replay
// log keeps only batches with Version > v (consolidated sets are
// shared structurally). The snapshot layer prunes with it: a batch is
// only ever replayed by a compaction whose base predates it, and the
// only base that can predate an already-applied batch is the one in
// flight, so everything older is dead weight.
func (o *Overlay) WithBatchesAfter(v uint64) *Overlay {
	kept := o.BatchesAfter(v)
	if len(kept) == len(o.batches) {
		return o
	}
	n := *o
	n.batches = append([]Batch(nil), kept...)
	return &n
}

// BatchCount reports the replay-log length (observability and tests).
func (o *Overlay) BatchCount() int { return len(o.batches) }

// Replay folds the given batches into a fresh overlay against a new
// static base (the compactor's residual overlay: updates that raced
// the rebuild).
func Replay(batches []Batch, inStatic func(Edge) bool) *Overlay {
	n := New()
	for _, b := range batches {
		n = n.Apply(b.Version, b.Adds, b.Dels, inStatic)
	}
	return n
}

// SizeBytes estimates the overlay footprint (consolidated sets plus
// the replay log).
func (o *Overlay) SizeBytes() int {
	sz := 64 + 12*(len(o.adds)+len(o.dels)) + 24*len(o.predTouch)
	for _, b := range o.batches {
		sz += 48 + 12*(len(b.Adds)+len(b.Dels))
	}
	return sz
}
