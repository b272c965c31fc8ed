// Package wavelet implements wavelet matrices over integer alphabets,
// the wavelet-tree layout the paper's artifact uses (§3.5). Beyond the
// classical access and rank operations they support the extended
// capabilities the RPQ algorithm builds on:
//
//   - enumerating the distinct symbols of a range together with their
//     occurrence-rank ranges (one backward-search step per symbol, §4.1);
//   - externally-filtered traversals, where the caller prunes subtrees by
//     consulting per-node metadata such as the B[v] automaton masks (§4.1)
//     and the D[v] visited-state masks (§4.2), addressed by heap-ordered
//     node ids;
//   - range intersection and "smallest symbol ≥ x in range" queries used
//     by the join-like fast paths (§5) and the Leapfrog extension (§6).
//
// A matrix is serialised by Encode and read back by DecodeMatrix; that
// is the only sequence section this package reads or writes.
package wavelet

import (
	"sync"

	"ringrpq/internal/bitvec"
)

// NodeID identifies a wavelet-matrix node in heap order: the root is 1
// and the children of v are 2v and 2v+1. Leaf ids can be obtained via
// LeafID.
// Callers use NodeIDs to attach per-node metadata in flat arrays of size
// NumNodes().
type NodeID int

// Parent returns the heap parent of a node (the root's parent is 0).
func (id NodeID) Parent() NodeID { return id / 2 }

// Root is the NodeID of the root of every wavelet matrix.
const Root NodeID = 1

// Visit is the callback of Traverse. It receives the node id, whether the
// node is a leaf, the leaf's symbol (valid only when leaf), the local
// half-open range covered within the node, and a full flag. For leaves
// the local range equals the range of occurrence ranks of the symbol,
// i.e. the range to which a backward search step by sym maps (up to the
// C-array offset), and full reports exactly whether the range spans all
// occurrences. For internal nodes the range is in the level's position
// space and full is false. Returning false prunes the subtree.
type Visit func(node NodeID, leaf bool, sym uint32, b, e int, full bool) bool

// RangeMask is one item of a multi-range traversal: the half-open
// position range [B, E) carrying a caller-defined 64-bit mask (the RPQ
// engine stores active-state sets in it) and an opaque Tag. The Tag
// rides along unchanged and keeps items from coalescing across tags,
// so a caller can send several item sets down one descent and tell
// them apart at the leaves; the RPQ engine leaves it zero.
type RangeMask struct {
	B, E int
	Mask uint64
	Tag  uint32
}

// VisitMany is the callback of TraverseMany. At an internal node it
// receives the items whose ranges intersect the node, mapped to
// node-local positions; the callback may compact the slice in place and
// returns the number of surviving items (a prefix) — returning 0 prunes
// the subtree. At a leaf the items hold occurrence-rank ranges of sym
// (exactly as Visit reports them) and the return value is ignored.
type VisitMany func(node NodeID, leaf bool, sym uint32, items []RangeMask) int

// pushRangeMask appends it to *arena, merging with the previous item
// when adjacent with an equal mask. Empty items are dropped. Entries at
// indices below floor belong to an enclosing traversal frame (different
// node-local coordinates) and are never merged into.
func pushRangeMask(arena *[]RangeMask, floor int, it RangeMask) {
	if it.B >= it.E {
		return
	}
	a := *arena
	if n := len(a); n > floor && a[n-1].E == it.B && a[n-1].Mask == it.Mask && a[n-1].Tag == it.Tag {
		a[n-1].E = it.E
		return
	}
	*arena = append(a, it)
}

// arenaPool recycles the left-child scratch arenas of TraverseMany
// descents. A batched BFS issues one multi-range descent per frontier
// level, and the per-call arena dominated its allocation profile; the
// pool cannot live on Matrix because it is immutable and shared across
// goroutines.
var arenaPool = sync.Pool{New: func() any {
	a := make([]RangeMask, 0, 64)
	return &a
}}

// getArena returns an empty arena with capacity for at least n items.
func getArena(n int) *[]RangeMask {
	ap := arenaPool.Get().(*[]RangeMask)
	if cap(*ap) < n {
		*ap = make([]RangeMask, 0, n)
	}
	*ap = (*ap)[:0]
	return ap
}

func putArena(ap *[]RangeMask) { arenaPool.Put(ap) }

// clampRangeMasks clamps every item to [0, n) and merges adjacent
// same-mask items in place, returning the normalised prefix (the shared
// TraverseMany prologue).
func clampRangeMasks(items []RangeMask, n int) []RangeMask {
	live := items[:0]
	for _, it := range items {
		if it.B < 0 {
			it.B = 0
		}
		if it.E > n {
			it.E = n
		}
		pushRangeMask(&live, 0, it)
	}
	return live
}

// splitRangeMasks maps the items of one wavelet node through its
// bitvector: left-child ranges are appended to *arena and right-child
// ranges compacted into items in place (offset by z, the start of the
// right child's position space, the level's zeros count), both
// coalescing adjacent same-mask ranges.
// Items that merely touch (frontier ranges with different masks) share
// a boundary, whose rank is computed once. It returns the right-child
// prefix of items.
func splitRangeMasks(bv *bitvec.Vector, z int, items []RangeMask, arena *[]RangeMask) []RangeMask {
	base := len(*arena)
	prevPos, prevRank := -1, 0
	w := 0
	for i := range items {
		it := items[i]
		lb := prevRank
		if it.B != prevPos {
			lb = bv.Rank0(it.B)
		}
		le := bv.Rank0(it.E)
		prevPos, prevRank = it.E, le
		pushRangeMask(arena, base, RangeMask{B: lb, E: le, Mask: it.Mask, Tag: it.Tag})
		rb, re := z+(it.B-lb), z+(it.E-le)
		if rb >= re {
			continue
		}
		if w > 0 && items[w-1].E == rb && items[w-1].Mask == it.Mask && items[w-1].Tag == it.Tag {
			items[w-1].E = re
			continue
		}
		items[w] = RangeMask{B: rb, E: re, Mask: it.Mask, Tag: it.Tag}
		w++
	}
	return items[:w]
}

// RangeDistinct enumerates the distinct symbols in [b, e) of m in
// increasing order, each with its occurrence ranks [rb, re) — the ranks
// Rank(c, b) and Rank(c, e), so C[c]+rb, C[c]+re is the range a
// backward-search step by c maps [b, e) to. This is the "warmup"
// algorithm at the end of §3.5: one depth-first descent, O(log σ) per
// reported symbol. emit returning false stops the descent.
//
//ringrpq:noalloc
func RangeDistinct(m *Matrix, b, e int, emit func(c uint32, rb, re int) bool) {
	if b < 0 {
		b = 0
	}
	if e > m.n {
		e = m.n
	}
	m.rangeDistinct(0, 0, b, e, emit)
}

// rangeDistinct is RangeDistinct below the node (level, prefix), whose
// local range is [b, e); false means emit stopped the descent.
//
//ringrpq:noalloc
func (m *Matrix) rangeDistinct(level int, prefix uint32, b, e int, emit func(c uint32, rb, re int) bool) bool {
	if b >= e {
		return true
	}
	if level == m.width {
		if prefix >= m.sigma {
			return true
		}
		s := int(m.bottomStart[prefix])
		return emit(prefix, b-s, e-s)
	}
	bv := m.levels[level]
	z := m.zeros[level]
	lb, le := bv.Rank0(b), bv.Rank0(e)
	return m.rangeDistinct(level+1, prefix<<1, lb, le, emit) &&
		m.rangeDistinct(level+1, prefix<<1|1, z+(b-lb), z+(e-le), emit)
}
