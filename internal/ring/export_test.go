package ring

import "ringrpq/internal/triples"

// LFo maps position i of L_o to the position of the same triple in L_p
// (Eq. 3), closing the LF cycle LFp and LFs start.
func (r *Ring) LFo(i int) int {
	o := r.Lo.Access(i)
	return r.Co[o] + r.Lo.Rank(o, i)
}

// TripleAt reconstructs the triple referenced by position i of L_p,
// following the LF cycle as in the worked example of §3.4.
func (r *Ring) TripleAt(i int) triples.Triple {
	p := r.Lp.Access(i)
	j := r.LFp(i)
	s := r.Ls.Access(j)
	k := r.LFs(j)
	o := r.Lo.Access(k)
	return triples.Triple{S: s, P: p, O: o}
}

// triples reconstructs the ring's triple set in (o,s,p) order, one
// TripleAt per position: the tests' decoder (ringtest.Triples is the
// bulk one, for tests outside this package).
func (r *Ring) triples() []triples.Triple {
	out := make([]triples.Triple, r.N)
	for i := range out {
		out[i] = r.TripleAt(i)
	}
	return out
}
