// Package overlay implements the live-update subsystem: an in-memory
// dynamic triple overlay — sorted adds plus tombstones over the static
// ring — that queries see as
//
//	ring ∪ adds − dels
//
// by attaching it to core's one traversal kernel, which reads an
// Overlay through the core.Delta seam and decides per query whether it
// matters (core.Engine.Eval). The ring index of the
// paper is static by construction (three sorted sequences cannot absorb
// an insertion), so mutability is layered on top LSM-style: updates
// accumulate in the overlay, every evaluation unions them in, and a
// compactor (the snapshot layer above, see the public DB) periodically
// merges the overlay into the ring and swaps the result in atomically.
// The updates that raced the merge need no log: the residual overlay
// over the merged ring is the set difference of the overlay version
// the merge started from and the current one (Diff).
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
)

// Edge is a completed dictionary-encoded triple (both directions of a
// data edge are materialised, exactly as in the static ring).
type Edge = core.Edge

var _ core.Delta = (*Overlay)(nil)

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

	version uint64

	// predTouch counts adds+dels per completed predicate id: the
	// kernel runs a query with no delta when none of its predicates is
	// touched (TouchesPred). predDels counts only tombstones, letting
	// the kernel skip per-edge deletion probes for predicates nothing
	// was deleted from.
	predTouch map[uint32]int
	predDels  map[uint32]int
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
	// Each edge the batch mentions moves between three states — live
	// add, tombstone, neither — independently of every other edge, so
	// only those edges are tracked: where they were in o (two binary
	// searches, on first sight) and where the batch leaves them.
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
	for _, e := range adds {
		m := at(e)
		switch {
		case m.now.del:
			m.now.del = false // revive a tombstoned static edge
		case !m.now.add && !inStatic(e):
			m.now.add = true
		}
		moved[e] = m
	}
	for _, e := range dels {
		m := at(e)
		switch {
		case m.now.add:
			m.now.add = false // cancel a pending add
		case !m.now.del && inStatic(e):
			m.now.del = true
		}
		moved[e] = m // an absent edge stays absent
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
	n.version = version
	return &n
}

// Diff returns the overlay that gives latest's view over the ring that
// merging base makes. base and latest are two versions of one overlay
// over one ring R, so that ring is R ∪ base.adds − base.dels, and over
// it latest's view needs
//
//	adds = (latest.adds − base.adds) ∪ (base.dels − latest.dels)
//	dels = (latest.dels − base.dels) ∪ (base.adds − latest.adds)
//
// In each union the first set lies outside R and the second inside it,
// so they are disjoint. The result carries latest's version. The cost
// is linear in the two overlays and probes no ring: it is how a
// finishing compaction keeps the updates that raced its merge.
func Diff(base, latest *Overlay) *Overlay {
	// Each union splices its second set into its first.
	n := New()
	n.adds = merge(minus(latest.adds, base.adds, cmpEdge), minus(base.dels, latest.dels, cmpEdge), nil, cmpEdge)
	n.dels = merge(minus(latest.dels, base.dels, cmpEdge), minus(base.adds, latest.adds, cmpEdge), nil, cmpEdge)
	n.addsPS = merge(minus(latest.addsPS, base.addsPS, cmpEdgePS), minus(base.delsPS, latest.delsPS, cmpEdgePS), nil, cmpEdgePS)
	n.delsPS = merge(minus(latest.delsPS, base.delsPS, cmpEdgePS), minus(base.addsPS, latest.addsPS, cmpEdgePS), nil, cmpEdgePS)
	n.version = latest.version
	for _, e := range n.adds {
		n.predTouch[e.P]++
	}
	for _, e := range n.dels {
		n.predTouch[e.P]++
		n.predDels[e.P]++
	}
	return n
}

// minus returns the edges of a that are not in b, both sorted by cmp.
func minus(a, b []Edge, cmp func(a, b Edge) int) []Edge {
	var out []Edge
	for _, e := range a {
		for len(b) > 0 && cmp(b[0], e) < 0 {
			b = b[1:]
		}
		if len(b) == 0 || cmp(b[0], e) != 0 {
			out = append(out, e)
		}
	}
	return out
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
