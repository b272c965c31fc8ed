// Package ringtest decodes rings for tests: the differential tests
// compare a ring's triple set, read back in bulk, against what built
// it. Nothing outside tests imports it.
package ringtest

import (
	"slices"

	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// Triples reconstructs r's completed triple set, in (o,s,p) order: L_p
// and L_s are decoded in bulk and every triple is read off one
// left-to-right pass over L_p — o from C_o, p = L_p[i], and the LF-step
// to L_s (Eq. 3) as C_p[p] plus a running count of the p's seen so
// far, which is what Rank(p, i) would say. O(n·log σ) sequential
// decoding plus O(n + σ) for the pass, no per-triple wavelet walk.
func Triples(r *ring.Ring) []triples.Triple {
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
