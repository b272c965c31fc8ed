package ring

import "ringrpq/internal/wavelet"

// Selectivity provides the on-the-fly statistics sketched in §6: "by
// roughly doubling the space, we can compute in logarithmic time the
// amount of distinct predicates labeling edges towards a given range of
// objects, or distinct subjects that are sources of a given range of
// predicates" (the colored range counting of Gagie et al.).
//
// For a sequence L, let prev[i] be the position of the previous
// occurrence of L[i] (or -1). The number of distinct symbols in
// L[b, e) equals the number of positions i ∈ [b, e) with prev[i] < b —
// each distinct symbol is counted exactly once, at its first occurrence
// in the range. Storing prev in a wavelet matrix answers that with one
// RangeCountBelow in O(log n). The prev matrices use ⌈log n⌉ bits per
// position versus the ⌈log σ⌉ of the ring's own sequences — the
// "roughly doubling" of the paper.
type Selectivity struct {
	prevP *wavelet.Matrix // previous-occurrence positions of L_p
	prevS *wavelet.Matrix // previous-occurrence positions of L_s
}

// NewSelectivity builds the statistics structures for r; construction is
// O(n log n).
func NewSelectivity(r *Ring) *Selectivity {
	return &Selectivity{
		prevP: prevTree(r.Lp),
		prevS: prevTree(r.Ls),
	}
}

// prevTree extracts a sequence and indexes its previous-occurrence
// array; positions are stored shifted by one so that "no previous
// occurrence" is 0.
func prevTree(seq *wavelet.Matrix) *wavelet.Matrix {
	n := seq.Len()
	last := make(map[uint32]int, 1024)
	prev := make([]uint32, n)
	for i := 0; i < n; i++ {
		c := seq.Access(i)
		if j, ok := last[c]; ok {
			prev[i] = uint32(j + 1)
		}
		last[c] = i
	}
	return wavelet.NewMatrix(prev, uint32(n)+1)
}

// DistinctPreds counts the distinct predicates in L_p[b, e) — for an
// object range, the distinct labels on incoming edges — in O(log n).
func (s *Selectivity) DistinctPreds(b, e int) int {
	return countDistinct(s.prevP, b, e)
}

// DistinctSubjects counts the distinct subjects in L_s[b, e) — for a
// predicate range, the distinct sources of such edges — in O(log n).
func (s *Selectivity) DistinctSubjects(b, e int) int {
	return countDistinct(s.prevS, b, e)
}

func countDistinct(prev *wavelet.Matrix, b, e int) int {
	if b < 0 {
		b = 0
	}
	if e > prev.Len() {
		e = prev.Len()
	}
	if b >= e {
		return 0
	}
	// Stored values are prev+1, so "prev < b" is "stored < b+1".
	return prev.RangeCountBelow(b, e, uint32(b)+1)
}

// SizeBytes reports the extra space of the statistics structures.
func (s *Selectivity) SizeBytes() int {
	return s.prevP.SizeBytes() + s.prevS.SizeBytes() + 16
}
