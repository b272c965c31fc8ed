package core

import (
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// This file holds the §5 fast paths, which the paper implements "more
// efficiently using just backward search and the extended functionality
// of wavelet trees", for the frequent join-like v→v shapes: a single
// predicate (v p v, v ^p v), an alternation of predicates, or a
// two-symbol concatenation (v p1/p2 v, v p1/^p2 v, …). The answer is a
// direct scan — pred-range extraction from the ring (minus tombstones)
// unioned with the overlay's predicate-major adds — instead of a
// generic product-graph traversal, which matters because these shapes
// dominate real logs and produce the largest result sets.

// tryFastPath handles (x, E, y) when E flattens to symbols or is a
// two-symbol concatenation; it reports whether the shape was recognised
// and handled.
func (e *Engine) tryFastPath(expr pathexpr.Node) (bool, error) {
	if x, ok := expr.(pathexpr.Concat); ok {
		l, lok := x.L.(pathexpr.Sym)
		r, rok := x.R.(pathexpr.Sym)
		if lok && rok {
			return true, e.fastConcat2(l, r)
		}
		return false, nil
	}
	syms, ok := flattenAlt(expr)
	if !ok {
		return false, nil
	}
	// Pair dedup across branches (two predicates may connect the same
	// pair) via the kernel-owned paged bitset (the paper uses a hash
	// table): zero steady-state allocation. Within one branch pairs are
	// distinct by construction — the ring's triples are a set and
	// overlay adds are disjoint from them — so single-symbol
	// expressions skip the probes entirely.
	e.pairs.reset()
	for _, sym := range syms {
		p, found := e.ids(sym)
		if !found {
			continue // unknown predicate matches nothing
		}
		if err := e.fastSingle(p, len(syms) > 1); err != nil {
			return true, err
		}
	}
	return true, nil
}

// fastSingle emits every union pair (s, o) with (s, p, o) ∈ U: the
// distinct subjects of L_s[C_p[p], C_p[p+1]) each
// backward-step their object range by p̂ to list their objects (§5),
// tombstones dropped; then the overlay's adds for p.
func (e *Engine) fastSingle(p uint32, dedup bool) error {
	pInv := inversePred(p, e.r.NumPreds)
	checkDels := e.ov.DelsForPred(p) > 0
	deliver := func(s, o uint32) error {
		if (!dedup || e.pairs.add(s, o)) && !e.emit(s, o) {
			return errLimit
		}
		return nil
	}
	r := e.r
	if b, end := r.PredRange(p); b < end {
		var failure error
		r.Ls.Traverse(b, end, func(_ wavelet.NodeID, leaf bool, s uint32, _, _ int, _ bool) bool {
			if failure != nil {
				return false
			}
			e.stats.WaveletVisits++
			e.stats.SubjectVisits++
			if !leaf {
				return true
			}
			if failure = e.checkDeadline(); failure != nil {
				return false
			}
			// Objects of (s, p, ·) are the subjects of the (p̂, object=s)
			// range: one backward-search step from s's object range.
			ob, oe := r.ObjectRange(s)
			lsB, lsE := r.BackwardByPred(ob, oe, pInv)
			r.Ls.Traverse(lsB, lsE, func(_ wavelet.NodeID, leaf2 bool, o uint32, _, _ int, _ bool) bool {
				if failure != nil {
					return false
				}
				e.stats.WaveletVisits++
				e.stats.SubjectVisits++
				if !leaf2 || checkDels && e.ov.Deleted(Edge{S: s, P: p, O: o}) {
					return true
				}
				failure = deliver(s, o)
				return failure == nil
			})
			return failure == nil
		})
		if failure != nil {
			return failure
		}
	}
	for _, ed := range e.ov.AddsByPred(p) {
		if err := deliver(ed.S, ed.O); err != nil {
			return err
		}
	}
	return nil
}

// fastConcat2 evaluates (x, p1/p2, y) over the union graph: the middle
// nodes z are the union targets of p1 intersected with the union
// sources of p2; for each z, the sources by p1 and the objects by p2
// are materialised (static backward steps minus tombstones, plus the
// overlay's sorted adds) and cross-multiplied (§5's join-like shape).
func (e *Engine) fastConcat2(s1, s2 pathexpr.Sym) error {
	p1, ok1 := e.ids(s1)
	p2, ok2 := e.ids(s2)
	if !ok1 || !ok2 {
		return nil
	}
	r := e.r
	p1Inv, p2Inv := inversePred(p1, r.NumPreds), inversePred(p2, r.NumPreds)
	del1 := e.ov.DelsForPred(p1) > 0
	del2 := e.ov.DelsForPred(p2) > 0
	e.pairs.reset()

	var srcs, dsts []uint32
	perMiddle := func(z uint32) error {
		if err := e.checkDeadline(); err != nil {
			return err
		}
		srcs, dsts = srcs[:0], dsts[:0]
		if int(z) < r.NumNodes {
			if ob, oe := r.ObjectRange(z); ob < oe {
				srcB, srcE := r.BackwardByPred(ob, oe, p1)
				wavelet.RangeDistinct(r.Ls, srcB, srcE, func(s uint32, _, _ int) bool {
					if !del1 || !e.ov.Deleted(Edge{S: s, P: p1, O: z}) {
						srcs = append(srcs, s)
					}
					return true
				})
				dstB, dstE := r.BackwardByPred(ob, oe, p2Inv)
				wavelet.RangeDistinct(r.Ls, dstB, dstE, func(o uint32, _, _ int) bool {
					if !del2 || !e.ov.Deleted(Edge{S: z, P: p2, O: o}) {
						dsts = append(dsts, o)
					}
					return true
				})
			}
		}
		// Overlay in-edges of z by p1 (sources) and out-edges by p2.
		for _, ed := range e.ov.AddsByPredSubject(p1Inv, z) {
			srcs = append(srcs, ed.O)
		}
		for _, ed := range e.ov.AddsByPredSubject(p2, z) {
			dsts = append(dsts, ed.O)
		}
		for _, s := range srcs {
			for _, o := range dsts {
				if e.pairs.add(s, o) && !e.emit(s, o) {
					return errLimit
				}
			}
		}
		return nil
	}

	// Middle nodes: the static targets of p1, then overlay targets not
	// already seen.
	addsP1 := e.ov.AddsByPred(p1)
	var zSeen map[uint32]bool
	if len(addsP1) > 0 {
		zSeen = map[uint32]bool{}
	}
	var failure error
	b, end := r.PredRange(p1Inv)
	wavelet.RangeDistinct(r.Ls, b, end, func(z uint32, _, _ int) bool {
		if zSeen != nil {
			zSeen[z] = true
		}
		failure = perMiddle(z)
		return failure == nil
	})
	if failure != nil {
		return failure
	}
	for _, ed := range addsP1 {
		if zSeen[ed.O] {
			continue
		}
		zSeen[ed.O] = true
		if err := perMiddle(ed.O); err != nil {
			return err
		}
	}
	return nil
}

// flattenAlt collects the leaves of an alternation tree if they are all
// plain symbols.
func flattenAlt(n pathexpr.Node) ([]pathexpr.Sym, bool) {
	switch x := n.(type) {
	case pathexpr.Sym:
		return []pathexpr.Sym{x}, true
	case pathexpr.Alt:
		l, lok := flattenAlt(x.L)
		r, rok := flattenAlt(x.R)
		if lok && rok {
			return append(l, r...), true
		}
	}
	return nil, false
}

// inversePred maps a completed predicate id to its inverse. The
// completed alphabet has an even size numPreds = 2|P| with p̂ = p ± |P|.
func inversePred(p, numPreds uint32) uint32 {
	half := numPreds / 2
	if p < half {
		return p + half
	}
	return p - half
}
