// Package overlay implements the live-update subsystem: an in-memory
// dynamic triple overlay — sorted adds plus tombstones over the static
// ring — and an evaluator that makes queries see
//
//	ring ∪ adds − dels
//
// behind the ordinary core.Evaluator interface (the union traversal
// itself is core's one traversal kernel, which reads an Overlay through
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
	"maps"
	"slices"
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

// find locates e in a slice sorted by (O, P, S).
func find(es []Edge, e Edge) bool {
	_, ok := slices.BinarySearchFunc(es, e, cmpEdge)
	return ok
}

// Apply returns a new overlay version with the batch folded in.
// inStatic reports membership in the static ring the overlay shadows;
// it decides whether a delete becomes a tombstone (edge in the ring)
// or cancels a pending add. Within one batch, deletes are applied
// after adds. version must exceed the current version (the snapshot
// layer allocates them monotonically).
//
// The cost is that of the batch, not of the overlay: O(b·log n) probes
// for a batch of b edges plus one copy of each consolidated slice the
// batch changes.
func (o *Overlay) Apply(version uint64, adds, dels []Edge, inStatic func(Edge) bool) *Overlay {
	b := Batch{Version: version, Adds: slices.Clone(adds), Dels: slices.Clone(dels)}
	n := o.Replay([]Batch{b}, inStatic)
	n.batches = append(slices.Clone(o.batches), b)
	return n
}

// Replay consolidates batches, oldest first, on top of o in one pass
// over their edges, without logging them: what a finishing compaction
// does to the updates that raced its rebuild, starting from New() and
// against the ring it just built. (The residual needs no replay log —
// whatever compaction comes next starts from a base that already
// contains it consolidated.) Replaying a sequence in two calls equals
// replaying it in one.
func (o *Overlay) Replay(batches []Batch, inStatic func(Edge) bool) *Overlay {
	if len(batches) == 0 {
		return o
	}
	// Each edge the batches mention moves between three states — live
	// add, tombstone, neither — independently of every other edge, so
	// only those edges are tracked: where they were in o (two binary
	// searches, on first sight) and where the batches leave them.
	type membership struct{ add, del bool }
	type move struct{ was, now membership }
	moved := map[Edge]move{}
	at := func(e Edge) move {
		if m, ok := moved[e]; ok {
			return m
		}
		was := membership{add: find(o.adds, e), del: find(o.dels, e)}
		return move{was: was, now: was}
	}
	for _, b := range batches {
		for _, e := range b.Adds {
			m := at(e)
			switch {
			case m.now.del:
				m.now.del = false // revive a tombstoned static edge
			case !m.now.add && !inStatic(e):
				m.now.add = true
			}
			moved[e] = m
		}
		for _, e := range b.Dels {
			m := at(e)
			switch {
			case m.now.add:
				m.now.add = false // cancel a pending add
			case !m.now.del && inStatic(e):
				m.now.del = true
			}
			moved[e] = m // an absent edge stays absent
		}
	}

	var addIns, addRem, delIns, delRem []Edge
	n := *o
	n.predTouch, n.predDels = maps.Clone(o.predTouch), maps.Clone(o.predDels)
	count := func(m map[uint32]int, p uint32, d int) {
		if m[p] += d; m[p] == 0 {
			delete(m, p)
		}
	}
	for e, m := range moved {
		switch {
		case m.now.add && !m.was.add:
			addIns = append(addIns, e)
			count(n.predTouch, e.P, 1)
		case !m.now.add && m.was.add:
			addRem = append(addRem, e)
			count(n.predTouch, e.P, -1)
		}
		switch {
		case m.now.del && !m.was.del:
			delIns = append(delIns, e)
			count(n.predTouch, e.P, 1)
			count(n.predDels, e.P, 1)
		case !m.now.del && m.was.del:
			delRem = append(delRem, e)
			count(n.predTouch, e.P, -1)
			count(n.predDels, e.P, -1)
		}
	}
	n.adds = merge(o.adds, addIns, addRem, cmpEdge)
	n.addsPS = merge(o.addsPS, addIns, addRem, cmpEdgePS)
	n.dels = merge(o.dels, delIns, delRem, cmpEdge)
	n.delsPS = merge(o.delsPS, delIns, delRem, cmpEdgePS)
	if len(addIns)+len(addRem) > 0 {
		n.maxNode = 0
		for _, e := range n.adds {
			n.maxNode = max(n.maxNode, e.S+1, e.O+1)
		}
	}
	n.version = batches[len(batches)-1].Version
	return &n
}

// merge returns old — sorted by cmp and never written to — with the
// edges of rem (all in old) removed and those of ins (none in old)
// inserted: a binary search per changed edge and block copies between
// them. ins and rem are sorted in place.
func merge(old, ins, rem []Edge, cmp func(a, b Edge) int) []Edge {
	if len(ins)+len(rem) == 0 {
		return old
	}
	slices.SortFunc(ins, cmp)
	slices.SortFunc(rem, cmp)
	out := make([]Edge, 0, len(old)+len(ins)-len(rem))
	for len(ins)+len(rem) > 0 {
		if len(rem) == 0 || len(ins) > 0 && cmp(ins[0], rem[0]) < 0 {
			i, _ := slices.BinarySearchFunc(old, ins[0], cmp)
			out = append(append(out, old[:i]...), ins[0])
			old, ins = old[i:], ins[1:]
		} else {
			i, _ := slices.BinarySearchFunc(old, rem[0], cmp)
			out = append(out, old[:i]...)
			old, rem = old[i+1:], rem[1:]
		}
	}
	return append(out, old...)
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

// SizeBytes estimates the overlay footprint: every consolidated edge is
// held twice (object-major and predicate-major), plus the per-predicate
// counts and the replay log.
func (o *Overlay) SizeBytes() int {
	sz := 64 + 12*(len(o.adds)+len(o.addsPS)+len(o.dels)+len(o.delsPS)) +
		24*(len(o.predTouch)+len(o.predDels))
	for _, b := range o.batches {
		sz += 48 + 12*(len(b.Adds)+len(b.Dels))
	}
	return sz
}
