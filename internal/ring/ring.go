// Package ring implements the ring index of Arroyuelo et al. (paper §3.4):
// a BWT-style representation of a set of n triples as three sequences,
//
//	L_o — the objects,    with triples sorted by (s,p,o);
//	L_s — the subjects,   with triples sorted by (p,o,s);
//	L_p — the predicates, with triples sorted by (o,s,p);
//
// each of which lists, for the sorted circular strings spo/pos/osp, the
// symbol that circularly precedes them. Together with the partitioning
// arrays C_s, C_p, C_o, LF-steps (Eq. 3) navigate from one sequence to the
// next, and backward search (Eqs. 4–5) maps a whole range at once. The
// sequences are represented as wavelet matrices, the paper's choice,
// whose range capabilities the RPQ engine exploits.
package ring

import (
	"fmt"
	"slices"

	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
)

// Layout names the wavelet representation of the sequences. There is
// one, WaveletMatrix, and New and NewShardSet accept it and ignore it:
// the parameter stays only because the benchmark module under bench/
// still passes it, and it goes with those calls (ROADMAP item 17).
type Layout int

// WaveletMatrix is the paper's implementation choice (§5), the only
// layout.
const WaveletMatrix Layout = 0

// Ring is the immutable index. All positions are 0-based and ranges are
// half-open, so the object range of o in L_p is [Co[o], Co[o+1]).
type Ring struct {
	// N is the number of (completed) triples.
	N int
	// NumNodes is |V|: subjects and objects share the node id space.
	NumNodes int
	// NumPreds is the completed predicate count |Σ↔|.
	NumPreds uint32

	// Lo, Ls, Lp are the three BWT sequences.
	Lo, Ls, Lp *wavelet.Matrix

	// Cs[x] counts triples with subject < x and partitions Lo; likewise
	// Cp partitions Ls by predicate and Co partitions Lp by object.
	// Each has one trailing entry equal to N. They are read-only views
	// of the symbol counts the sequences hold anyway (Cs of L_s's, Cp of
	// L_p's, Co of L_o's), so each array is stored once.
	Cs, Cp, Co []int
}

// New builds the ring over the completed triples of g. The layout is
// ignored (see Layout).
func New(g *triples.Graph, _ Layout) *Ring {
	return fromTriples(slices.Clone(g.Triples), g.NumNodes(), g.NumCompletedPreds())
}

// fromTriples builds the ring over ts, which it takes over as sorting
// space (the triples come back in some other order).
func fromTriples(ts []triples.Triple, nv int, np uint32) *Ring {
	n := len(ts)
	for _, t := range ts {
		if int(t.S) >= nv || int(t.O) >= nv || t.P >= np {
			panic(fmt.Sprintf("ring: triple (%d,%d,%d) outside id space (%d nodes, %d predicates); did the builder intern all names?",
				t.S, t.P, t.O, nv, np))
		}
	}
	r := &Ring{N: n, NumNodes: nv, NumPreds: np}

	// The three orders are rotations of one another, so once the
	// triples are in one of them a stable counting sort on a single
	// component yields the next (the LF property of §3.4). ts and one
	// more buffer take turns as source and destination; cn and cp are
	// the passes' count scratch (the C arrays come from the sequences).
	a, b := ts, make([]triples.Triple, n)
	cn, cp := make([]int, nv+1), make([]int, np+1)
	seq := make([]uint32, n)

	// L_p: triples sorted by (o,s,p), reached from any input order by
	// passes on p, s and o. C_o partitions it by object.
	triples.SortBy(b, a, triples.ByP, cp)
	triples.SortBy(a, b, triples.ByS, cn)
	triples.SortBy(b, a, triples.ByO, cn)
	for i, t := range b {
		seq[i] = t.P
	}
	r.Lp = wavelet.NewMatrix(seq, np)

	// L_s: triples sorted by (p,o,s). C_p partitions it by predicate.
	triples.SortBy(a, b, triples.ByP, cp)
	for i, t := range a {
		seq[i] = t.S
	}
	r.Ls = wavelet.NewMatrix(seq, uint32(nv))

	// L_o: triples sorted by (s,p,o); the cyclically preceding symbol of
	// s in "spo" is o. C_s partitions it by subject.
	triples.SortBy(b, a, triples.ByS, cn)
	for i, t := range b {
		seq[i] = t.O
	}
	r.Lo = wavelet.NewMatrix(seq, uint32(nv))

	r.viewC()
	return r
}

// viewC points the C arrays at the sequences' symbol counts. An empty
// alphabet is built as one symbol, so each view is cut to the ring's
// own id space (and capped, so an append cannot reach the sequence).
func (r *Ring) viewC() {
	r.Cs = r.Ls.Counts()[: r.NumNodes+1 : r.NumNodes+1]
	r.Cp = r.Lp.Counts()[: r.NumPreds+1 : r.NumPreds+1]
	r.Co = r.Lo.Counts()[: r.NumNodes+1 : r.NumNodes+1]
}

// ObjectRange returns the range of L_p holding the triples with object o.
func (r *Ring) ObjectRange(o uint32) (int, int) {
	return r.Co[o], r.Co[o+1]
}

// SubjectRange returns the range of L_o holding the triples with subject s.
func (r *Ring) SubjectRange(s uint32) (int, int) {
	return r.Cs[s], r.Cs[s+1]
}

// PredRange returns the range of L_s holding the triples with predicate p.
func (r *Ring) PredRange(p uint32) (int, int) {
	return r.Cp[p], r.Cp[p+1]
}

// LFp maps position i of L_p to the position of the same triple in L_s
// (Eq. 3).
func (r *Ring) LFp(i int) int {
	p := r.Lp.Access(i)
	return r.Cp[p] + r.Lp.Rank(p, i)
}

// LFs maps position i of L_s to the position of the same triple in L_o.
func (r *Ring) LFs(i int) int {
	s := r.Ls.Access(i)
	return r.Cs[s] + r.Ls.Rank(s, i)
}

// BackwardByPred maps a range [b, e) of L_p (triples sharing an object
// prefix) through predicate p, yielding the range of L_s holding the
// triples with that object prefix and predicate p (Eqs. 4–5).
func (r *Ring) BackwardByPred(b, e int, p uint32) (int, int) {
	return r.Cp[p] + r.Lp.Rank(p, b), r.Cp[p] + r.Lp.Rank(p, e)
}

// BackwardBySubj maps a range [b, e) of L_s through subject s, yielding
// the corresponding range of L_o.
func (r *Ring) BackwardBySubj(b, e int, s uint32) (int, int) {
	return r.Cs[s] + r.Ls.Rank(s, b), r.Cs[s] + r.Ls.Rank(s, e)
}

// BackwardByObj maps a range [b, e) of L_o through object o, yielding the
// corresponding range of L_p.
func (r *Ring) BackwardByObj(b, e int, o uint32) (int, int) {
	return r.Co[o] + r.Lo.Rank(o, b), r.Co[o] + r.Lo.Rank(o, e)
}

// SizeBytes reports the index footprint: the three wavelet sequences,
// each allocation counted once. The C arrays are views of the
// sequences' symbol counts and are already inside their SizeBytes.
// (The paper stores C_o as a bitvector and C_p as a plain array; we
// count plain arrays, which only overestimates our own index.)
func (r *Ring) SizeBytes() int {
	return r.Lo.SizeBytes() + r.Ls.SizeBytes() + r.Lp.SizeBytes() + 64
}

// QuerySizeBytes reports the footprint of only the structures the RPQ
// engine uses — L_s and L_p, which hold C_s and C_p, plus L_o's symbol
// counts, which C_o views — matching the paper's 16.41 bytes/triple
// accounting, which excludes L_o.
func (r *Ring) QuerySizeBytes() int {
	return r.Ls.SizeBytes() + r.Lp.SizeBytes() + 8*len(r.Lo.Counts()) + 64
}
