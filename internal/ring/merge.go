package ring

import (
	"cmp"
	"fmt"
	"slices"

	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
)

// Merge returns the ring over this ring's triples minus dels plus adds,
// with numNodes ≥ NumNodes nodes: the ring FromTriples builds over that
// set, byte for byte, without decoding this one. The compactor's entry
// point. adds must be absent from the ring and dels present in it, each
// without duplicates (the overlay's invariants); their order does not
// matter.
//
// An edited triple's place in each of the three orders is the number
// of the ring's triples below it there, which rank queries on this
// ring read off (see the pos methods), and each sequence then merges
// its k edits level by level (wavelet.Matrix.Merge): O(k·log σ) rank
// queries plus O(n/64 + k) per level, against FromTriples' sorts and
// O(n·log σ) rebuild.
func (r *Ring) Merge(adds, dels []triples.Triple, numNodes int) *Ring {
	if numNodes < r.NumNodes {
		panic(fmt.Sprintf("ring: merge shrinks the node space from %d to %d", r.NumNodes, numNodes))
	}
	for _, t := range adds {
		if int(t.S) >= numNodes || int(t.O) >= numNodes || t.P >= r.NumPreds {
			panic(fmt.Sprintf("ring: added triple (%d,%d,%d) outside id space (%d nodes, %d predicates)",
				t.S, t.P, t.O, numNodes, r.NumPreds))
		}
	}
	es := make([]edit, 0, len(adds)+len(dels))
	for _, t := range adds {
		es = append(es, edit{t: t})
	}
	for _, t := range dels {
		es = append(es, edit{t: t, del: true})
	}
	nr := &Ring{N: r.N + len(adds) - len(dels), NumNodes: numNodes, NumPreds: r.NumPreds}
	// L_p lists p in (o,s,p) order, L_s lists s in (p,o,s) order and
	// L_o lists o in (s,p,o) order.
	nr.Lp = r.Lp.Merge(place(es, r.posP, func(t triples.Triple) (uint32, uint32, uint32) { return t.O, t.S, t.P }), r.Lp.Sigma())
	nr.Ls = r.Ls.Merge(place(es, r.posS, func(t triples.Triple) (uint32, uint32, uint32) { return t.P, t.O, t.S }), uint32(numNodes))
	nr.Lo = r.Lo.Merge(place(es, r.posO, func(t triples.Triple) (uint32, uint32, uint32) { return t.S, t.P, t.O }), uint32(numNodes))
	nr.viewC()
	return nr
}

// edit is one triple Merge adds or deletes.
type edit struct {
	t   triples.Triple
	del bool
}

// place sorts the edits in the order key gives the triples, whose last
// component is the sequence's symbol, and addresses each in that
// sequence. Every triple's position is the count of ring triples below
// it, so the sorted edits come out as wavelet.Matrix.Merge takes them:
// an add sits before the ring triple above it, which a delete at the
// same position removes.
func place(es []edit, pos func(triples.Triple) int, key func(triples.Triple) (uint32, uint32, uint32)) []wavelet.Edit {
	type keyed struct {
		hi  uint64 // the key's first two components
		sym uint32 // and its last
		e   edit
	}
	ks := make([]keyed, len(es))
	for i, e := range es {
		a, b, c := key(e.t)
		ks[i] = keyed{uint64(a)<<32 | uint64(b), c, e}
	}
	slices.SortFunc(ks, func(x, y keyed) int {
		return cmp.Or(cmp.Compare(x.hi, y.hi), cmp.Compare(x.sym, y.sym))
	})
	out := make([]wavelet.Edit, len(ks))
	for i, k := range ks {
		if i > 0 && k.hi == ks[i-1].hi && k.sym == ks[i-1].sym {
			panic(fmt.Sprintf("ring: merge edits triple %v twice", k.e.t))
		}
		out[i] = wavelet.Edit{Pos: pos(k.e.t), Sym: k.sym, Del: k.e.del}
	}
	return out
}

// cAt reads entry x of a C array, which is N for the ids past the ring's
// node space: they hold no triples yet.
func (r *Ring) cAt(arr []int, x int) int {
	if x < len(arr) {
		return arr[x]
	}
	return r.N
}

// posP is the number of triples below t in (o,s,p) order, L_p's: those
// with a smaller object (C_o), then those with object o and a smaller
// subject (the o's in L_o's subject ranges below s), then those in the
// (o,s) run with a smaller predicate.
func (r *Ring) posP(t triples.Triple) int {
	ob := r.cAt(r.Co, int(t.O))
	b, e := r.Lo.RankRange(t.O, r.cAt(r.Cs, int(t.S)), r.cAt(r.Cs, int(t.S)+1))
	return ob + b + r.Lp.RangeCountBelow(ob+b, ob+e, t.P)
}

// posS is the number of triples below t in (p,o,s) order, L_s's: the
// (p,o) run is BackwardByPred of o's object range, and the run's
// smaller subjects precede t.
func (r *Ring) posS(t triples.Triple) int {
	cp := r.Cp[t.P]
	b, e := r.Lp.RankRange(t.P, r.cAt(r.Co, int(t.O)), r.cAt(r.Co, int(t.O)+1))
	return cp + b + r.Ls.RangeCountBelow(cp+b, cp+e, t.S)
}

// posO is the number of triples below t in (s,p,o) order, L_o's: the
// (s,p) run is BackwardBySubj of p's predicate range, and the run's
// smaller objects precede t.
func (r *Ring) posO(t triples.Triple) int {
	cs := r.cAt(r.Cs, int(t.S))
	b, e := r.Ls.RankRange(t.S, r.Cp[t.P], r.Cp[t.P+1])
	return cs + b + r.Lo.RangeCountBelow(cs+b, cs+e, t.O)
}
