package ring

import (
	"slices"

	"ringrpq/internal/triples"
)

// This file holds the ring-side building blocks of the live-update
// subsystem (internal/overlay): membership probes used to decide
// whether a delete is a tombstone, and triple reconstruction used by
// the compactor to rebuild a ring from ring+overlay.

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

// Triples reconstructs the ring's completed triple set, in (o,s,p)
// order: L_p and L_s are decoded in bulk and every triple is read off
// one left-to-right pass over L_p — o from C_o, p = L_p[i], and the
// LF-step to L_s (Eq. 3) as C_p[p] plus a running count of the p's seen
// so far, which is what Rank(p, i) would say. O(n·log σ) sequential
// decoding plus O(n + σ) for the pass, no per-triple wavelet walk;
// used by the compactor, which merges the result with the overlay.
func (r *Ring) Triples() []triples.Triple {
	out := make([]triples.Triple, r.N)
	buf := make([]uint32, 2*r.N)
	sym, tmp := buf[:r.N], buf[r.N:]
	r.Lp.Symbols(sym, tmp)
	for i, p := range sym {
		out[i].P = p
	}
	r.Ls.Symbols(sym, tmp)
	next := slices.Clone(r.Cp[:r.NumPreds])
	for o := 0; o < r.NumNodes; o++ {
		for i := r.Co[o]; i < r.Co[o+1]; i++ {
			p := out[i].P
			out[i].S, out[i].O = sym[next[p]], uint32(o)
			next[p]++
		}
	}
	return out
}

// FromTriples builds a ring directly over a completed triple list (any
// order, no duplicates) with explicit id spaces: five counting-sort
// passes of O(n + σ) each and three O(n·log σ) wavelet builds, no
// comparison sort. It takes ts over as sorting space, so the caller's
// triples come back reordered. The database builder's and the
// compactor's entry point; New, which clones a Graph's triples first,
// serves the harness and the benchmark.
func FromTriples(ts []triples.Triple, numNodes int, numPreds uint32) *Ring {
	return fromTriples(ts, numNodes, numPreds)
}
