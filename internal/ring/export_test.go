package ring

import "ringrpq/internal/triples"

// LFo maps position i of L_o to the position of the same triple in L_p
// (Eq. 3), closing the LF cycle LFp and LFs start.
func (r *Ring) LFo(i int) int {
	o := r.Lo.Access(i)
	return r.Co[o] + r.Lo.Rank(o, i)
}

// TripleAt reconstructs the triple referenced by position i of L_p,
// following the LF cycle as in the worked example of §3.4: the tests'
// oracle for the bulk decoder Triples.
func (r *Ring) TripleAt(i int) triples.Triple {
	p := r.Lp.Access(i)
	j := r.LFp(i)
	s := r.Ls.Access(j)
	k := r.LFs(j)
	o := r.Lo.Access(k)
	return triples.Triple{S: s, P: p, O: o}
}
