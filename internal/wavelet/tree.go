package wavelet

import (
	"fmt"
	"math/bits"

	"ringrpq/internal/bitvec"
)

// Tree is a pointer-free balanced wavelet tree (§3.5): a perfect binary
// tree over the alphabet [0, σ) whose internal nodes store bitvectors, in
// heap order. A node covering symbols [lo, hi) splits at mid = (lo+hi)/2.
type Tree struct {
	n      int
	sigma  uint32
	nodes  []*bitvec.Vector // heap-indexed; nil at leaves and absent ids
	counts []int            // counts[c] = occurrences of symbols < c
	numIDs int
}

// NewTree builds a wavelet tree over data, whose symbols must lie in
// [0, sigma). Construction is level-by-level with two n-word buffers,
// O(n log σ) time.
func NewTree(data []uint32, sigma uint32) *Tree {
	if sigma == 0 {
		sigma = 1
	}
	t := &Tree{n: len(data), sigma: sigma}
	t.counts = make([]int, sigma+1)
	for _, c := range data {
		if c >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d out of alphabet [0,%d)", c, sigma))
		}
		t.counts[c+1]++
	}
	for c := uint32(0); c < sigma; c++ {
		t.counts[c+1] += t.counts[c]
	}

	depth := 0
	for 1<<depth < int(sigma) {
		depth++
	}
	t.numIDs = 2 << depth
	t.nodes = make([]*bitvec.Vector, t.numIDs)

	type seg struct {
		id     int
		lo, hi uint32
		b, e   int
	}
	cur := make([]uint32, len(data))
	copy(cur, data)
	next := make([]uint32, len(data))
	segs := []seg{{1, 0, sigma, 0, len(data)}}
	for len(segs) > 0 {
		var nsegs []seg
		for _, s := range segs {
			if s.hi-s.lo <= 1 || s.b == s.e {
				continue
			}
			mid := (s.lo + s.hi) / 2
			bb := bitvec.NewBuilder(s.e - s.b)
			for _, c := range cur[s.b:s.e] {
				bb.Append(c >= mid)
			}
			t.nodes[s.id] = bb.Build()
			// Stable partition into the next level's buffer, children
			// occupying the parent's slot left-to-right.
			l, r := s.b, s.b+t.nodes[s.id].Zeros()
			zend := r
			for _, c := range cur[s.b:s.e] {
				if c < mid {
					next[l] = c
					l++
				} else {
					next[r] = c
					r++
				}
			}
			nsegs = append(nsegs,
				seg{2 * s.id, s.lo, mid, s.b, zend},
				seg{2*s.id + 1, mid, s.hi, zend, s.e})
		}
		cur, next = next, cur
		segs = nsegs
	}
	return t
}

// Symbols decodes the whole sequence into dst (see Seq.Symbols) by a
// recursive split: each node's children are decoded into the two halves
// of the scratch buffer and merged back in sequence order by the node's
// bits. No rank queries; O(n·log σ) sequential work.
func (t *Tree) Symbols(dst, tmp []uint32) {
	t.symbols(1, 0, t.sigma, dst[:t.n], tmp[:t.n])
}

func (t *Tree) symbols(id int, lo, hi uint32, dst, tmp []uint32) {
	if len(dst) == 0 {
		return
	}
	if hi-lo <= 1 {
		for i := range dst {
			dst[i] = lo
		}
		return
	}
	bv := t.nodes[id]
	mid := (lo + hi) / 2
	z := bv.Zeros()
	t.symbols(2*id, lo, mid, tmp[:z], dst[:z])
	t.symbols(2*id+1, mid, hi, tmp[z:], dst[z:])
	unpartition(bv, dst, tmp)
}

// Len reports the sequence length.
func (t *Tree) Len() int { return t.n }

// Sigma reports the alphabet size.
func (t *Tree) Sigma() uint32 { return t.sigma }

// Count reports the total occurrences of c.
func (t *Tree) Count(c uint32) int {
	if c >= t.sigma {
		return 0
	}
	return t.counts[c+1] - t.counts[c]
}

// CountBelow reports the number of positions holding symbols < c,
// i.e. the classical C[c] array of backward search (Eq. 3).
func (t *Tree) CountBelow(c uint32) int {
	if c > t.sigma {
		c = t.sigma
	}
	return t.counts[c]
}

// Counts returns the tree's own CountBelow array (see Seq.Counts).
func (t *Tree) Counts() []int { return t.counts }

// NumNodes reports the exclusive upper bound on NodeIDs.
func (t *Tree) NumNodes() int { return t.numIDs }

// LeafID returns the heap id of the leaf representing c.
func (t *Tree) LeafID(c uint32) NodeID {
	id := 1
	lo, hi := uint32(0), t.sigma
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c < mid {
			id, hi = 2*id, mid
		} else {
			id, lo = 2*id+1, mid
		}
	}
	return NodeID(id)
}

// Access returns the symbol at position i.
func (t *Tree) Access(i int) uint32 {
	id := 1
	lo, hi := uint32(0), t.sigma
	for hi-lo > 1 {
		bv := t.nodes[id]
		mid := (lo + hi) / 2
		if bv.Get(i) {
			i = bv.Rank1(i)
			id, lo = 2*id+1, mid
		} else {
			i = bv.Rank0(i)
			id, hi = 2*id, mid
		}
	}
	return lo
}

// Rank counts occurrences of c in [0, i).
func (t *Tree) Rank(c uint32, i int) int {
	if c >= t.sigma {
		return 0
	}
	if i > t.n {
		i = t.n
	}
	id := 1
	lo, hi := uint32(0), t.sigma
	for hi-lo > 1 && i > 0 {
		bv := t.nodes[id]
		if bv == nil {
			return 0 // empty subtree
		}
		mid := (lo + hi) / 2
		if c < mid {
			i = bv.Rank0(i)
			id, hi = 2*id, mid
		} else {
			i = bv.Rank1(i)
			id, lo = 2*id+1, mid
		}
	}
	if hi-lo > 1 {
		return 0
	}
	return i
}

// Select returns the position of the k-th (1-based) occurrence of c, or -1.
func (t *Tree) Select(c uint32, k int) int {
	if c >= t.sigma || k < 1 || k > t.Count(c) {
		return -1
	}
	// Descend to the leaf recording the path, then map the local ordinal
	// back up with select on each bitvector.
	type step struct {
		id    int
		right bool
	}
	var path [40]step
	np := 0
	id := 1
	lo, hi := uint32(0), t.sigma
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c < mid {
			path[np] = step{id, false}
			id, hi = 2*id, mid
		} else {
			path[np] = step{id, true}
			id, lo = 2*id+1, mid
		}
		np++
	}
	pos := k // 1-based ordinal within the current node
	for j := np - 1; j >= 0; j-- {
		bv := t.nodes[path[j].id]
		if path[j].right {
			pos = bv.Select1(pos) + 1
		} else {
			pos = bv.Select0(pos) + 1
		}
	}
	return pos - 1
}

// Traverse walks the nodes covering [b, e); see Visit.
func (t *Tree) Traverse(b, e int, visit Visit) {
	if b < 0 {
		b = 0
	}
	if e > t.n {
		e = t.n
	}
	t.traverse(1, 0, t.sigma, b, e, visit)
}

func (t *Tree) traverse(id int, lo, hi uint32, b, e int, visit Visit) {
	if b >= e {
		return
	}
	if hi-lo == 1 {
		visit(NodeID(id), true, lo, b, e, b == 0 && e == t.Count(lo))
		return
	}
	bv := t.nodes[id]
	if bv == nil {
		return
	}
	if !visit(NodeID(id), false, 0, b, e, b == 0 && e == bv.Len()) {
		return
	}
	mid := (lo + hi) / 2
	lb, le := bv.Rank0(b), bv.Rank0(e)
	t.traverse(2*id, lo, mid, lb, le, visit)
	t.traverse(2*id+1, mid, hi, b-lb, e-le, visit)
}

// TraverseMany walks the nodes covering every item range in a single
// descent (see Seq.TraverseMany).
//
//ringrpq:noalloc
func (t *Tree) TraverseMany(items []RangeMask, visit VisitMany) {
	live := clampRangeMasks(items, t.n)
	if len(live) == 0 {
		return
	}
	arena := getArena(2*len(live) + 16)
	t.traverseMany(1, 0, t.sigma, live, arena, visit)
	putArena(arena)
}

//ringrpq:noalloc
func (t *Tree) traverseMany(id int, lo, hi uint32, items []RangeMask, arena *[]RangeMask, visit VisitMany) {
	if len(items) == 0 {
		return
	}
	if hi-lo == 1 {
		visit(NodeID(id), true, lo, items)
		return
	}
	bv := t.nodes[id]
	if bv == nil {
		return
	}
	k := visit(NodeID(id), false, 0, items)
	if k <= 0 {
		return
	}
	mid := (lo + hi) / 2
	base := len(*arena)
	right := splitRangeMasks(bv, 0, items[:k], arena)
	t.traverseMany(2*id, lo, mid, (*arena)[base:], arena, visit)
	*arena = (*arena)[:base]
	t.traverseMany(2*id+1, mid, hi, right, arena, visit)
}

// MinAtLeast returns the smallest symbol ≥ x occurring in [b, e).
func (t *Tree) MinAtLeast(b, e int, x uint32) (uint32, bool) {
	if b < 0 {
		b = 0
	}
	if e > t.n {
		e = t.n
	}
	return t.minAtLeast(1, 0, t.sigma, b, e, x)
}

func (t *Tree) minAtLeast(id int, lo, hi uint32, b, e int, x uint32) (uint32, bool) {
	if b >= e || hi <= x {
		return 0, false
	}
	if hi-lo == 1 {
		return lo, true
	}
	bv := t.nodes[id]
	if bv == nil {
		return 0, false
	}
	mid := (lo + hi) / 2
	lb, le := bv.Rank0(b), bv.Rank0(e)
	if x < mid {
		if c, ok := t.minAtLeast(2*id, lo, mid, lb, le, x); ok {
			return c, true
		}
	}
	return t.minAtLeast(2*id+1, mid, hi, b-lb, e-le, x)
}

// SymRange reports the symbol interval covered by a node, replaying the
// mid-point splits along the node's root path (O(depth)).
func (t *Tree) SymRange(id NodeID) (uint32, uint32) {
	if id < 1 || int(id) >= t.numIDs {
		return 0, 0
	}
	depth := bits.Len(uint(id)) - 1
	lo, hi := uint32(0), t.sigma
	for level := depth - 1; level >= 0; level-- {
		if hi-lo <= 1 {
			return 0, 0 // below a leaf: no symbols
		}
		mid := (lo + hi) / 2
		if id>>uint(level)&1 == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// PadNodes returns nil: the balanced tree has exactly one leaf per
// alphabet symbol and no padding.
func (t *Tree) PadNodes() []NodeID { return nil }

// SizeBytes reports the index memory footprint.
func (t *Tree) SizeBytes() int {
	sz := 8*len(t.counts) + 8*len(t.nodes) + 48
	for _, bv := range t.nodes {
		if bv != nil {
			sz += bv.SizeBytes()
		}
	}
	return sz
}
