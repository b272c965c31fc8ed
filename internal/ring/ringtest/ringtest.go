// Package ringtest decodes rings for tests: the differential tests
// compare a ring's triple set, read back, against what built
// it. Nothing outside tests imports it.
package ringtest

import (
	"slices"

	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// Triples reconstructs r's completed triple set, in (o,s,p) order:
// every triple is read off one left-to-right pass over L_p — o from
// C_o, p = L_p[i], and the LF-step to L_s (Eq. 3) as C_p[p] plus a
// running count of the p's seen so far, which is what Rank(p, i) would
// say; s is L_s at that position. Two Access calls per triple, each
// O(log σ).
func Triples(r *ring.Ring) []triples.Triple {
	out := make([]triples.Triple, r.N)
	next := slices.Clone(r.Cp[:r.NumPreds])
	for o := 0; o < r.NumNodes; o++ {
		for i := r.Co[o]; i < r.Co[o+1]; i++ {
			p := r.Lp.Access(int(i))
			out[i] = triples.Triple{S: r.Ls.Access(int(next[p])), P: p, O: uint32(o)}
			next[p]++
		}
	}
	return out
}
