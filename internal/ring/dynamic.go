package ring

import (
	"slices"

	"ringrpq/internal/triples"
)

// This file holds the ring-side building blocks of the live-update
// subsystem (internal/overlay): membership probes used to decide
// whether a delete is a tombstone, triple reconstruction used by the
// compactor to rebuild a ring from ring+overlay, and per-shard
// replacement so a sharded compaction only rebuilds the sub-rings
// whose predicates the overlay touched.

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
// triples come back reordered. The compactor's entry point; New remains
// the builder's, going through a Graph.
func FromTriples(ts []triples.Triple, numNodes int, numPreds uint32) *Ring {
	return fromTriples(ts, numNodes, numPreds)
}

// ShardSetFrom assembles a ShardSet from pre-built sub-rings (all over
// the same global id spaces). The compactor uses it to swap rebuilt
// shards in next to untouched ones, which are shared structurally with
// the previous set.
func ShardSetFrom(shards []*Ring, part Partitioner, numNodes int, numPreds uint32) *ShardSet {
	if part == nil {
		part = HashPartitioner{}
	}
	s := &ShardSet{K: len(shards), Shards: shards, Part: part, NumNodes: numNodes, NumPreds: numPreds}
	for _, r := range shards {
		s.N += r.N
	}
	return s
}
