package wavelet

import (
	"fmt"
	"math/bits"

	"ringrpq/internal/bitvec"
)

// Matrix is a wavelet matrix (Claude, Navarro & Ordóñez), the
// wavelet-tree layout the paper's artifact uses for its large alphabets:
// one bitvector per bit level (MSB first); at each level all zeros of the
// previous level precede all ones. Node ranges remain contiguous, so
// nodes take heap-ordered NodeIDs, id = 2^level + prefix, where prefix is
// the symbol's high bits consumed so far.
type Matrix struct {
	n      int
	sigma  uint32
	width  int // bit levels
	levels []*bitvec.Vector
	zeros  []int // zeros[l] = number of 0-bits at level l
	counts []int // counts[c] = occurrences of symbols < c

	// bottomStart[c] is the position where c's (contiguous) occurrences
	// begin at the virtual leaf level. The bottom order is the
	// bit-reversal permutation of the symbols, so this is a prefix sum
	// of counts in that order; it lets Traverse report leaf
	// occurrence-rank ranges without tracking node boundaries
	// (halving the rank queries per visited node).
	bottomStart []uint32
}

// NewMatrix builds a wavelet matrix over data with symbols in [0, sigma),
// in O(n·log σ + σ) sequential work: per level, one pass packs the
// level's bits a word at a time and one stably partitions the sequence
// for the next level. It panics unless len(data) passes
// bitvec.CheckLen, which the 32-bit leaf starts rely on too.
func NewMatrix(data []uint32, sigma uint32) *Matrix {
	if err := bitvec.CheckLen(len(data)); err != nil {
		panic(err)
	}
	if sigma == 0 {
		sigma = 1
	}
	width := matrixWidth(sigma)
	n := len(data)
	m := &Matrix{n: n, sigma: sigma, width: width}
	m.counts = make([]int, sigma+1)
	for _, c := range data {
		if c >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d out of alphabet [0,%d)", c, sigma))
		}
		m.counts[c+1]++
	}
	for c := uint32(0); c < sigma; c++ {
		m.counts[c+1] += m.counts[c]
	}

	m.levels = make([]*bitvec.Vector, width)
	m.zeros = make([]int, width)
	cur := make([]uint32, n)
	copy(cur, data)
	next := make([]uint32, n)
	for l := 0; l < width; l++ {
		bit := uint(width - 1 - l)
		words := make([]uint64, (n+63)/64)
		ones := 0
		for wi := range words {
			var w uint64
			for j, c := range cur[wi*64 : min(wi*64+64, n)] {
				w |= uint64(c>>bit&1) << uint(j)
			}
			words[wi] = w
			ones += bits.OnesCount64(w)
		}
		m.levels[l] = bitvec.FromWords(words, n)
		m.zeros[l] = n - ones
		// Stable partition: zeros first, then ones.
		zi, oi := 0, n-ones
		for _, c := range cur {
			b := int(c >> bit & 1)
			next[zi+(oi-zi)*b] = c
			zi += 1 - b
			oi += b
		}
		cur, next = next, cur
	}
	m.setBottomStarts()
	return m
}

// matrixWidth is the number of bit levels of a matrix over [0, sigma).
func matrixWidth(sigma uint32) int {
	return max(1, bits.Len32(sigma-1))
}

// setBottomStarts lays out the virtual leaf level: the symbols in the
// order of their width-bit reversals, each taking Count(c) positions.
// Enumerating the reversals of 0, 1, 2, … visits the symbols in exactly
// that order, 2^width < 2σ steps.
func (m *Matrix) setBottomStarts() {
	m.bottomStart = make([]uint32, m.sigma)
	pos := 0
	for r := 0; r < 1<<m.width; r++ {
		if c := bits.Reverse32(uint32(r)) >> uint(32-m.width); c < m.sigma {
			m.bottomStart[c] = uint32(pos)
			pos += m.Count(c)
		}
	}
}

// Len reports the sequence length.
func (m *Matrix) Len() int { return m.n }

// Sigma reports the alphabet size.
func (m *Matrix) Sigma() uint32 { return m.sigma }

// Count reports the total occurrences of c.
func (m *Matrix) Count(c uint32) int {
	if c >= m.sigma {
		return 0
	}
	return m.counts[c+1] - m.counts[c]
}

// Counts returns the prefix sums of the symbol counts, Sigma()+1
// entries with Counts()[c] the number of positions holding symbols below
// c: the C array of backward search (Eq. 3). It is the matrix's own
// array, not a copy, and must not be written.
func (m *Matrix) Counts() []int { return m.counts }

// NumNodes reports the exclusive upper bound on NodeIDs: ids live in
// [1, 2^(width+1)).
func (m *Matrix) NumNodes() int { return 2 << m.width }

// LeafID returns the heap id of the (virtual) leaf of symbol c.
func (m *Matrix) LeafID(c uint32) NodeID { return NodeID(1<<m.width | int(c)) }

// Access returns the symbol at position i.
func (m *Matrix) Access(i int) uint32 {
	var c uint32
	for l := 0; l < m.width; l++ {
		bv := m.levels[l]
		c <<= 1
		if bv.Get(i) {
			c |= 1
			i = m.zeros[l] + bv.Rank1(i)
		} else {
			i = bv.Rank0(i)
		}
	}
	return c
}

// Rank counts occurrences of c in [0, i): i is mapped down c's path,
// one rank per level, to the leaf level, where c's occurrences start
// at bottomStart[c] and the ones before i end at the mapped position.
func (m *Matrix) Rank(c uint32, i int) int {
	if c >= m.sigma || i <= 0 {
		return 0
	}
	if i > m.n {
		i = m.n
	}
	for l := 0; l < m.width; l++ {
		bv := m.levels[l]
		if c>>(uint(m.width-1-l))&1 == 1 {
			i = m.zeros[l] + bv.Rank1(i)
		} else {
			i -= bv.Rank1(i)
		}
	}
	return i - int(m.bottomStart[c])
}

// RankRange returns Rank(c, b) and Rank(c, e) for b ≤ e in one
// descent: at each level e is ranked from b with one masked popcount
// where the two share a word, as traverse ranks a range's end.
func (m *Matrix) RankRange(c uint32, b, e int) (int, int) {
	if c >= m.sigma {
		return 0, 0
	}
	b, e = min(max(b, 0), m.n), min(max(e, 0), m.n)
	for l := 0; l < m.width; l++ {
		bv := m.levels[l]
		r1b := bv.Rank1(b)
		r1e := r1b
		if b < e {
			var ok bool
			if r1e, ok = wordRank1(bv.Words(), b, r1b, e); !ok {
				r1e = bv.Rank1(e)
			}
		}
		if c>>(uint(m.width-1-l))&1 == 1 {
			b, e = m.zeros[l]+r1b, m.zeros[l]+r1e
		} else {
			b, e = b-r1b, e-r1e
		}
	}
	s := int(m.bottomStart[c])
	return b - s, e - s
}

// Traverse walks the nodes covering [b, e), consulting visit for
// pruning (see Visit). Leaf callbacks receive exact occurrence-rank
// ranges via the precomputed bottom-level starts. The cost is per
// visited node: a range ranks its start in the level's directory and
// its end with one masked popcount when it ends in the start's word (a
// one-position range always does: its popcount is the bit test).
func (m *Matrix) Traverse(b, e int, visit Visit) {
	if b < 0 {
		b = 0
	}
	if e > m.n {
		e = m.n
	}
	m.traverse(0, 0, b, e, visit)
}

// traverse is Traverse below the node (level, prefix), whose local
// range is [b, e). It follows the right child, or the only non-empty
// child, by looping and recurses only into a left child whose sibling
// is non-empty too; children that receive nothing are not visited.
func (m *Matrix) traverse(level int, prefix uint32, b, e int, visit Visit) {
	for b < e {
		id := NodeID(1<<level | int(prefix))
		if level == m.width {
			if prefix < m.sigma {
				s := int(m.bottomStart[prefix])
				rb, re := b-s, e-s
				visit(id, true, prefix, rb, re, rb == 0 && re == m.Count(prefix))
			}
			return
		}
		if !visit(id, false, 0, b, e, false) {
			return
		}
		bv := m.levels[level]
		z := m.zeros[level]
		level++
		prefix <<= 1
		r1b := bv.Rank1(b)
		r1e, ok := wordRank1(bv.Words(), b, r1b, e)
		if !ok {
			r1e = bv.Rank1(e)
		}
		lb, le := b-r1b, e-r1e
		if r1b == r1e {
			b, e = lb, le
			continue
		}
		if lb < le {
			m.traverse(level, prefix, lb, le, visit)
		}
		b, e = z+r1b, z+r1e
		prefix |= 1
	}
}

// TraverseMany walks the nodes covering every item range in one
// root-to-leaf descent, splitting the item list at each node instead of
// re-descending from the root per item and coalescing adjacent ranges
// that carry the same mask (the frontier-batched §4 traversal), so
// shared top-level nodes are visited once for the whole batch. The
// cost is per visited node and item: a node that keeps several items
// maps them through a running rank cursor (one masked popcount per
// boundary in the cursor's word, a directory rank otherwise); a node
// that keeps one item ranks its start, its end from the start, and
// passes the item to its one child without splitting it unless it
// straddles both. Items must be sorted by B; they should be disjoint
// for the coalescing to apply, but overlapping items are handled (each
// behaves as an independent Traverse). The visits, their order and
// the items each receives are those of a left-first depth-first
// descent that ranks both ends of every item at every node. The slice
// is mutated and owned by the traversal until it returns.
//
//ringrpq:noalloc
func (m *Matrix) TraverseMany(items []RangeMask, visit VisitMany) {
	live := clampRangeMasks(items, m.n)
	if len(live) == 0 {
		return
	}
	arena := getArena(2*len(live) + 16)
	m.traverseMany(0, 0, live, arena, visit)
	putArena(arena)
}

// traverseMany is TraverseMany below the node (level, prefix), whose
// surviving items are items (node-local ranges). Like traverse it
// loops into the right child, or the only non-empty one, and recurses
// into a left child only when both receive items; left-child items
// live in *arena above its length on entry.
//
//ringrpq:noalloc
func (m *Matrix) traverseMany(level int, prefix uint32, items []RangeMask, arena *[]RangeMask, visit VisitMany) {
	for len(items) > 0 {
		id := NodeID(1<<level | int(prefix))
		if level == m.width {
			if prefix < m.sigma {
				s := int(m.bottomStart[prefix])
				for i := range items {
					items[i].B -= s
					items[i].E -= s
				}
				visit(id, true, prefix, items)
			}
			return
		}
		k := visit(id, false, 0, items)
		if k <= 0 {
			return
		}
		bv := m.levels[level]
		z := m.zeros[level]
		level++
		prefix <<= 1
		base := len(*arena)
		// Most nodes keep one item (83 % of those passing items on, on
		// the g100k ceilings log); it moves to its child in place
		// instead of through the arena unless it straddles both.
		if k == 1 {
			it := &items[0]
			r1b := bv.Rank1(it.B)
			r1e, ok := wordRank1(bv.Words(), it.B, r1b, it.E)
			if !ok {
				r1e = bv.Rank1(it.E)
			}
			lb, le := it.B-r1b, it.E-r1e
			items = items[:1]
			if r1b == r1e {
				it.B, it.E = lb, le
				continue
			}
			if lb < le {
				pushRangeMask(arena, base, RangeMask{B: lb, E: le, Mask: it.Mask, Tag: it.Tag})
				m.traverseMany(level, prefix, (*arena)[base:], arena, visit)
				*arena = (*arena)[:base]
			}
			it.B, it.E = z+r1b, z+r1e
			prefix |= 1
			continue
		}
		right := splitRangeMasks(bv, z, items[:k], arena)
		if len(right) == 0 {
			items = (*arena)[base:]
			continue
		}
		if len(*arena) > base {
			m.traverseMany(level, prefix, (*arena)[base:], arena, visit)
			*arena = (*arena)[:base]
		}
		items = right
		prefix |= 1
	}
}

// MinAtLeast returns the smallest symbol ≥ x occurring in [b, e).
//
//ringrpq:noalloc
func (m *Matrix) MinAtLeast(b, e int, x uint32) (uint32, bool) {
	if b < 0 {
		b = 0
	}
	if e > m.n {
		e = m.n
	}
	c, ok := m.minAtLeast(0, 0, b, e, x)
	if ok && c >= m.sigma {
		return 0, false
	}
	return c, ok
}

// minAtLeast is MinAtLeast below the node (level, prefix), whose
// local range is [b, e).
//
//ringrpq:noalloc
func (m *Matrix) minAtLeast(level int, prefix uint32, b, e int, x uint32) (uint32, bool) {
	if b >= e {
		return 0, false
	}
	if level == m.width {
		if prefix >= x {
			return prefix, true
		}
		return 0, false
	}
	rem := uint(m.width - level)
	// Subtree covers symbols [prefix<<rem, (prefix+1)<<rem); prune if all
	// of them are below x (uint64 avoids overflow at shallow levels).
	if (uint64(prefix)+1)<<rem <= uint64(x) {
		return 0, false
	}
	bv := m.levels[level]
	z := m.zeros[level]
	lb, le := bv.Rank0(b), bv.Rank0(e)
	// Left child covers symbols below prefix<<rem + 2^(rem-1).
	if uint64(x) < uint64(prefix)<<rem+1<<(rem-1) {
		if c, ok := m.minAtLeast(level+1, prefix<<1, lb, le, x); ok {
			return c, true
		}
	}
	return m.minAtLeast(level+1, prefix<<1|1, z+(b-lb), z+(e-le), x)
}

// SymRange reports the half-open symbol interval [lo, hi) a node covers,
// clamped to the alphabet (empty for pure padding nodes): a node id
// encodes (level, prefix) directly, so this is O(1).
func (m *Matrix) SymRange(id NodeID) (uint32, uint32) {
	level := bits.Len(uint(id)) - 1
	prefix := uint64(id) - 1<<uint(level)
	rem := uint(m.width - level)
	lo := prefix << rem
	hi := lo + 1<<rem
	if lo > uint64(m.sigma) {
		lo = uint64(m.sigma)
	}
	if hi > uint64(m.sigma) {
		hi = uint64(m.sigma)
	}
	return uint32(lo), uint32(hi)
}

// PadNodes returns the canonical (segment-tree style) decomposition of the
// padding leaf range [sigma, 2^width) into maximal subtrees: the matrix
// pads the alphabet to a power of two, and these subtrees cover no
// symbol. Callers maintaining per-node metadata keyed by NodeID can
// pre-mark them so that bottom-up aggregation is not blocked by
// never-visited padding leaves.
func (m *Matrix) PadNodes() []NodeID {
	var out []NodeID
	lo := 1<<m.width + int(m.sigma) // leaf-level id of first padding symbol
	hi := 2 << m.width              // exclusive
	for lo < hi {
		if lo&1 == 1 {
			out = append(out, NodeID(lo))
			lo++
		}
		if hi&1 == 1 {
			hi--
			out = append(out, NodeID(hi))
		}
		lo /= 2
		hi /= 2
	}
	return out
}

// RangeCountBelow counts the positions of [b, e) holding symbols < x,
// in O(log σ): a ring merge uses it to rank a new triple inside its
// range.
func (m *Matrix) RangeCountBelow(b, e int, x uint32) int {
	if b < 0 {
		b = 0
	}
	if e > m.n {
		e = m.n
	}
	if b >= e || x == 0 {
		return 0
	}
	if uint64(x) >= 1<<uint(m.width) {
		return e - b
	}
	count := 0
	for l := 0; l < m.width; l++ {
		bv := m.levels[l]
		r1b := bv.Rank1(b)
		r1e, ok := wordRank1(bv.Words(), b, r1b, e)
		if !ok {
			r1e = bv.Rank1(e)
		}
		lb, le := b-r1b, e-r1e
		if x>>(uint(m.width-1-l))&1 == 1 {
			// Symbols with a 0-bit here are below x: count and follow
			// the 1-side.
			count += le - lb
			z := m.zeros[l]
			b, e = z+r1b, z+r1e
		} else {
			b, e = lb, le
		}
		if b >= e {
			break
		}
	}
	return count
}

// SizeBytes reports the index memory footprint.
func (m *Matrix) SizeBytes() int {
	sz := 8*len(m.counts) + 8*len(m.zeros) + 8*len(m.levels) + 4*len(m.bottomStart) + 48
	for _, bv := range m.levels {
		sz += bv.SizeBytes()
	}
	return sz
}
