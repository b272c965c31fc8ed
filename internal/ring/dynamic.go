package ring

import "ringrpq/internal/triples"

// This file holds the ring-side building blocks of the live-update
// subsystem (internal/overlay): the membership probe that decides
// whether a delete is a tombstone, and the direct build; the compactor
// folds an overlay in with Merge (merge.go).

// Has reports whether the ring contains the completed triple (s, p, o).
// Ids outside the ring's spaces are simply absent. One backward-search
// step (Eqs. 4–5) plus a rank probe: O(log σ).
func (r *Ring) Has(s, p, o uint32) bool {
	if int(s) >= r.NumNodes || int(o) >= r.NumNodes || p >= r.NumPreds {
		return false
	}
	b, e := r.ObjectRange(o)
	if b == e {
		return false
	}
	lsB, lsE := r.BackwardByPred(b, e, p)
	if lsB == lsE {
		return false
	}
	return r.Ls.Rank(s, lsE) > r.Ls.Rank(s, lsB)
}

// FromTriples builds a ring directly over a completed triple list (any
// order, no duplicates) with explicit id spaces: five counting-sort
// passes of O(n + σ) each and three O(n·log σ) wavelet builds, no
// comparison sort. It takes ts over as sorting space, so the caller's
// triples come back reordered. The database builder's entry point, and
// the oracle Merge must match byte for byte; New, which clones a
// Graph's triples first, serves the harness and the benchmark.
func FromTriples(ts []triples.Triple, numNodes int, numPreds uint32) *Ring {
	return fromTriples(ts, numNodes, numPreds)
}
