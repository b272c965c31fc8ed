package wavelet

import (
	"fmt"
	"math/bits"

	"ringrpq/internal/bitvec"
)

// Matrix is a wavelet matrix (Claude, Navarro & Ordóñez), the alternative
// wavelet-tree layout the paper's artifact uses for its large alphabets:
// one bitvector per bit level (MSB first); at each level all zeros of the
// previous level precede all ones. Node ranges remain contiguous, so the
// same heap-ordered NodeID scheme as Tree applies with id = 2^level +
// prefix, where prefix is the symbol's high bits consumed so far.
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
	bottomStart []int
}

// NewMatrix builds a wavelet matrix over data with symbols in [0, sigma),
// in O(n·log σ + σ) sequential work: per level, one pass packs the
// level's bits a word at a time and one stably partitions the sequence
// for the next level.
func NewMatrix(data []uint32, sigma uint32) *Matrix {
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
	m.bottomStart = make([]int, m.sigma)
	pos := 0
	for r := 0; r < 1<<m.width; r++ {
		if c := bits.Reverse32(uint32(r)) >> uint(32-m.width); c < m.sigma {
			m.bottomStart[c] = pos
			pos += m.Count(c)
		}
	}
}

// Symbols decodes the whole sequence into dst (see Seq.Symbols) by
// undoing the level partitions bottom-up: the leaf level is known from
// the counts alone, and level l's order is recovered from level l+1's
// by reading l's bits left to right, taking the next unread element of
// the zeros run or of the ones run. No rank queries; O(n·log σ)
// sequential work.
func (m *Matrix) Symbols(dst, tmp []uint32) {
	// Each level moves the sequence from one buffer to the other;
	// start in the one that makes the last move land in dst.
	cur, next := dst[:m.n], tmp[:m.n]
	if m.width%2 == 1 {
		cur, next = next, cur
	}
	for c := uint32(0); c < m.sigma; c++ {
		run := cur[m.bottomStart[c]:][:m.Count(c)]
		for i := range run {
			run[i] = c
		}
	}
	for l := m.width - 1; l >= 0; l-- {
		unpartition(m.levels[l], next, cur)
		cur, next = next, cur
	}
}

// unpartition inverts a stable partition by bv's bits: src holds the
// elements whose bit is 0 followed by those whose bit is 1, each group
// in sequence order, and dst receives them back in sequence order.
func unpartition(bv *bitvec.Vector, dst, src []uint32) {
	zi, oi := 0, bv.Zeros()
	for wi, w := range bv.Words() {
		chunk := dst[wi*64 : min(wi*64+64, len(dst))]
		for j := range chunk {
			b := int(w >> uint(j) & 1)
			chunk[j] = src[zi+(oi-zi)*b]
			zi += 1 - b
			oi += b
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

// CountBelow reports the number of positions holding symbols < c.
func (m *Matrix) CountBelow(c uint32) int {
	if c > m.sigma {
		c = m.sigma
	}
	return m.counts[c]
}

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

// Rank counts occurrences of c in [0, i).
func (m *Matrix) Rank(c uint32, i int) int {
	if c >= m.sigma {
		return 0
	}
	if i > m.n {
		i = m.n
	}
	b := 0
	for l := 0; l < m.width; l++ {
		bv := m.levels[l]
		if c>>(uint(m.width-1-l))&1 == 1 {
			b = m.zeros[l] + bv.Rank1(b)
			i = m.zeros[l] + bv.Rank1(i)
		} else {
			b = bv.Rank0(b)
			i = bv.Rank0(i)
		}
	}
	return i - b
}

// Select returns the position of the k-th (1-based) occurrence of c, or -1.
func (m *Matrix) Select(c uint32, k int) int {
	if c >= m.sigma || k < 1 || k > m.Count(c) {
		return -1
	}
	// Descend recording the start of c's node interval at each level,
	// then map the k-th occurrence back up with select.
	starts := make([]int, m.width+1)
	b := 0
	for l := 0; l < m.width; l++ {
		starts[l] = b
		bv := m.levels[l]
		if c>>(uint(m.width-1-l))&1 == 1 {
			b = m.zeros[l] + bv.Rank1(b)
		} else {
			b = bv.Rank0(b)
		}
	}
	pos := b + k - 1 // absolute position at the virtual leaf level
	for l := m.width - 1; l >= 0; l-- {
		bv := m.levels[l]
		if c>>(uint(m.width-1-l))&1 == 1 {
			pos = bv.Select1(pos - m.zeros[l] + 1)
		} else {
			pos = bv.Select0(pos + 1)
		}
	}
	return pos
}

// Traverse walks the nodes covering [b, e); see Visit. Leaf callbacks
// receive exact occurrence-rank ranges via the precomputed bottom-level
// starts; the full flag is exact at leaves and always false at internal
// nodes (which Seq permits).
func (m *Matrix) Traverse(b, e int, visit Visit) {
	if b < 0 {
		b = 0
	}
	if e > m.n {
		e = m.n
	}
	m.traverse(0, 0, b, e, visit)
}

func (m *Matrix) traverse(level int, prefix uint32, b, e int, visit Visit) {
	if b >= e {
		return
	}
	id := NodeID(1<<level | int(prefix))
	if level == m.width {
		if prefix < m.sigma {
			rb := b - m.bottomStart[prefix]
			re := e - m.bottomStart[prefix]
			visit(id, true, prefix, rb, re, rb == 0 && re == m.Count(prefix))
		}
		return
	}
	if !visit(id, false, 0, b, e, false) {
		return
	}
	bv := m.levels[level]
	z := m.zeros[level]
	lb, le := bv.Rank0(b), bv.Rank0(e)
	m.traverse(level+1, prefix<<1, lb, le, visit)
	m.traverse(level+1, prefix<<1|1, z+(b-lb), z+(e-le), visit)
}

// TraverseMany walks the nodes covering every item range in a single
// descent (see Seq.TraverseMany). Each level maps the surviving items
// through two rank queries per item — shared top-level nodes are visited
// once for the whole batch instead of once per item.
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

//ringrpq:noalloc
func (m *Matrix) traverseMany(level int, prefix uint32, items []RangeMask, arena *[]RangeMask, visit VisitMany) {
	if len(items) == 0 {
		return
	}
	id := NodeID(1<<level | int(prefix))
	if level == m.width {
		if prefix < m.sigma {
			s := m.bottomStart[prefix]
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
	base := len(*arena)
	right := splitRangeMasks(m.levels[level], m.zeros[level], items[:k], arena)
	m.traverseMany(level+1, prefix<<1, (*arena)[base:], arena, visit)
	*arena = (*arena)[:base]
	m.traverseMany(level+1, prefix<<1|1, right, arena, visit)
}

// MinAtLeast returns the smallest symbol ≥ x occurring in [b, e).
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

// SymRange reports the symbol interval covered by a node: a node id
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
// padding leaf range [sigma, 2^width) into maximal subtrees.
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

// SizeBytes reports the index memory footprint.
func (m *Matrix) SizeBytes() int {
	sz := 8*len(m.counts) + 8*len(m.zeros) + 8*len(m.levels) + 8*len(m.bottomStart) + 48
	for _, bv := range m.levels {
		sz += bv.SizeBytes()
	}
	return sz
}
