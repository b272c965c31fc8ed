// Package wavelet implements wavelet trees and wavelet matrices over
// integer alphabets (paper §3.5). Beyond the classical access/rank/select
// operations they support the extended capabilities the RPQ algorithm
// builds on:
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
// Both implementations satisfy Seq; the paper's artifact uses wavelet
// matrices, and the ablation benchmarks compare the two.
package wavelet

import (
	"sync"

	"ringrpq/internal/bitvec"
)

// NodeID identifies a wavelet-tree node in heap order: the root is 1 and
// the children of v are 2v and 2v+1. Leaf ids can be obtained via LeafID.
// Callers use NodeIDs to attach per-node metadata in flat arrays of size
// NumNodes().
type NodeID int

// Parent returns the heap parent of a node (the root's parent is 0).
func (id NodeID) Parent() NodeID { return id / 2 }

// Root is the NodeID of the root of every wavelet tree.
const Root NodeID = 1

// Visit is the callback of Traverse. It receives the node id, whether the
// node is a leaf, the leaf's symbol (valid only when leaf), the local
// half-open range covered within the node, and a full flag. For leaves
// the local range equals the range of occurrence ranks of the symbol,
// i.e. the range to which a backward search step by sym maps (up to the
// C-array offset), and full reports exactly whether the range spans all
// occurrences. For internal nodes the range is implementation-local and
// full is only a hint: true implies full coverage, but implementations
// may always report false. Returning false prunes the subtree.
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
// pool cannot live on Matrix/Tree because those are immutable and
// shared across goroutines.
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
// right child's position space — the zeros count for a matrix level,
// zero for a tree node), both coalescing adjacent same-mask ranges.
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

// Seq is the sequence capability required by the ring and the RPQ engine.
type Seq interface {
	// Len reports the sequence length.
	Len() int
	// Sigma reports the alphabet size; symbols are in [0, Sigma).
	Sigma() uint32
	// Access returns the symbol at position i.
	Access(i int) uint32
	// Symbols decodes the whole sequence into dst[:Len()], using
	// tmp[:Len()] as scratch (both at least Len() long, not
	// overlapping): the bulk form of Access for callers that read every
	// position, at a few sequential passes instead of Len() descents.
	Symbols(dst, tmp []uint32)
	// Rank counts occurrences of c in the prefix [0, i).
	Rank(c uint32, i int) int
	// Select returns the position of the k-th (1-based) occurrence of c,
	// or -1 if there are fewer than k.
	Select(c uint32, k int) int
	// Count reports the total occurrences of c.
	Count(c uint32) int
	// Counts returns the prefix sums of the symbol counts, Sigma()+1
	// entries with Counts()[c] the number of positions holding symbols
	// below c: the C array of backward search (Eq. 3). It is the
	// sequence's own array, not a copy, and must not be written.
	Counts() []int
	// NumNodes reports an exclusive upper bound on NodeIDs.
	NumNodes() int
	// LeafID returns the NodeID of the leaf representing c.
	LeafID(c uint32) NodeID
	// Traverse walks the nodes covering positions [b, e), consulting visit
	// for pruning (see Visit).
	Traverse(b, e int, visit Visit)
	// TraverseMany walks the nodes covering every item range in one
	// root-to-leaf descent, splitting the item list at each node instead
	// of re-descending from the root per item and coalescing adjacent
	// ranges that carry the same mask (the frontier-batched §4
	// traversal). Items must be sorted by B; they should be disjoint
	// for the coalescing to apply, but overlapping items are handled
	// (each behaves as an independent Traverse). The slice is mutated
	// and owned by the traversal until it returns.
	TraverseMany(items []RangeMask, visit VisitMany)
	// MinAtLeast returns the smallest symbol ≥ x occurring in [b, e).
	MinAtLeast(b, e int, x uint32) (uint32, bool)
	// SymRange reports the half-open symbol interval [lo, hi) a node
	// covers (clamped to the alphabet; empty for pure padding nodes).
	SymRange(id NodeID) (lo, hi uint32)
	// PadNodes returns the canonical roots of maximal subtrees that cover
	// no alphabet symbol (the wavelet matrix pads the alphabet to a power
	// of two). Callers maintaining per-node metadata keyed by NodeID can
	// pre-mark these so that bottom-up aggregation is not blocked by
	// never-visited padding leaves. Empty for layouts without padding.
	PadNodes() []NodeID
	// SizeBytes reports the index memory footprint.
	SizeBytes() int
}

// RangeDistinct enumerates the distinct symbols in [b, e) of s in
// increasing order, with their occurrence-rank ranges. This is the
// "warmup" algorithm at the end of §3.5: O(log σ) per reported symbol.
func RangeDistinct(s Seq, b, e int, emit func(c uint32, rb, re int)) {
	s.Traverse(b, e, func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if leaf {
			emit(sym, lb, le)
		}
		return true
	})
}
