package wavelet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// leafHit records one leaf observation attributable to a single input
// item: (leaf symbol, occurrence-rank range, mask).
type leafHit struct {
	sym    uint32
	rb, re int
	mask   uint64
}

// referenceLeaves runs one classic Traverse per item and collects leaf
// hits — the unbatched ground truth TraverseMany must reproduce (up to
// coalescing of adjacent ranges with equal masks).
func referenceLeaves(s *Matrix, items []RangeMask) []leafHit {
	var out []leafHit
	for _, it := range items {
		mask := it.Mask
		s.Traverse(it.B, it.E, func(node NodeID, leaf bool, sym uint32, b, e int, full bool) bool {
			if leaf {
				out = append(out, leafHit{sym, b, e, mask})
			}
			return true
		})
	}
	return out
}

// batchedLeaves runs one TraverseMany over all items and collects leaf
// hits; the input slice is copied first because TraverseMany mutates it.
func batchedLeaves(s *Matrix, items []RangeMask) []leafHit {
	scratch := append([]RangeMask(nil), items...)
	var out []leafHit
	s.TraverseMany(scratch, func(node NodeID, leaf bool, sym uint32, its []RangeMask) int {
		if leaf {
			for _, it := range its {
				out = append(out, leafHit{sym, it.B, it.E, it.Mask})
			}
		}
		return len(its)
	})
	return out
}

// normalizeHits merges per-symbol, per-mask hits into a canonical sorted
// set of covered occurrence positions, so coalesced and uncoalesced
// reports compare equal.
func normalizeHits(hits []leafHit) map[uint64][]int {
	cover := map[uint64]map[int]bool{}
	for _, h := range hits {
		key := uint64(h.sym)<<32 | h.mask&0xffffffff // masks in tests fit 32 bits
		if cover[key] == nil {
			cover[key] = map[int]bool{}
		}
		for i := h.rb; i < h.re; i++ {
			cover[key][i] = true
		}
	}
	out := map[uint64][]int{}
	for key, set := range cover {
		var ps []int
		for p := range set {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		out[key] = ps
	}
	return out
}

// randomDisjointItems draws sorted disjoint ranges over [0, n) with
// random small masks.
func randomDisjointItems(rng *rand.Rand, n, count int) []RangeMask {
	if n == 0 {
		return nil
	}
	var cuts []int
	for i := 0; i < 2*count; i++ {
		cuts = append(cuts, rng.Intn(n+1))
	}
	sort.Ints(cuts)
	var items []RangeMask
	for i := 0; i+1 < len(cuts); i += 2 {
		if cuts[i] < cuts[i+1] {
			items = append(items, RangeMask{B: cuts[i], E: cuts[i+1], Mask: 1 << uint(rng.Intn(8))})
		}
	}
	return items
}

// TraverseMany over random disjoint sorted items must see exactly the
// leaves the per-item Traverse sees, with identical occurrence coverage
// per (symbol, mask).
func TestTraverseManyMatchesTraverse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		sigma := uint32(1 + rng.Intn(37))
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(rng.Intn(int(sigma)))
		}
		items := randomDisjointItems(rng, n, 1+rng.Intn(8))
		s := NewMatrix(data, sigma)
		want := normalizeHits(referenceLeaves(s, items))
		got := normalizeHits(batchedLeaves(s, items))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: batched leaves differ\n got: %v\nwant: %v", seed, got, want)
		}
	}
}

// Overlapping items are allowed: each behaves as an independent
// traversal (no coalescing across them is required, but coverage per
// (symbol, mask) must match).
func TestTraverseManyOverlappingItems(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n, sigma := 200, uint32(17)
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(rng.Intn(int(sigma)))
	}
	items := []RangeMask{
		{B: 0, E: 150, Mask: 1},
		{B: 10, E: 60, Mask: 2},
		{B: 10, E: 60, Mask: 2}, // exact duplicate
		{B: 50, E: 200, Mask: 1},
	}
	s := NewMatrix(data, sigma)
	want := normalizeHits(referenceLeaves(s, items))
	got := normalizeHits(batchedLeaves(s, items))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overlapping items differ\n got: %v\nwant: %v", got, want)
	}
}

// Empty item lists, empty ranges and out-of-bounds ranges must be
// tolerated (clamped or dropped) without visiting anything spurious.
func TestTraverseManyEmptyAndClamped(t *testing.T) {
	data := []uint32{3, 1, 4, 1, 5, 9, 2, 6}
	s := NewMatrix(data, 10)
	s.TraverseMany(nil, func(NodeID, bool, uint32, []RangeMask) int {
		t.Fatal("visit called on empty item list")
		return 0
	})
	s.TraverseMany([]RangeMask{{B: 3, E: 3, Mask: 1}, {B: 5, E: 4, Mask: 1}},
		func(NodeID, bool, uint32, []RangeMask) int {
			t.Fatal("visit called on empty ranges")
			return 0
		})
	// Clamped: [-5, 3) and [6, 99) must behave as [0, 3) and [6, 8).
	got := normalizeHits(batchedLeaves(s, []RangeMask{{B: -5, E: 3, Mask: 1}, {B: 6, E: 99, Mask: 2}}))
	want := normalizeHits(referenceLeaves(s, []RangeMask{{B: 0, E: 3, Mask: 1}, {B: 6, E: 8, Mask: 2}}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clamping differs\n got: %v\nwant: %v", got, want)
	}
}

// Adjacent same-mask items must coalesce: a run of unit ranges covering
// [0, n) with one shared mask must behave as the full-range traversal
// and visit each internal node exactly once.
func TestTraverseManyCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, sigma := 128, uint32(16)
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(rng.Intn(int(sigma)))
	}
	s := NewMatrix(data, sigma)
	var items []RangeMask
	for i := 0; i < n; i++ {
		items = append(items, RangeMask{B: i, E: i + 1, Mask: 42})
	}
	visitsBatched := 0
	s.TraverseMany(items, func(node NodeID, leaf bool, sym uint32, its []RangeMask) int {
		visitsBatched++
		if len(its) != 1 {
			t.Fatalf("node %d sees %d items, want 1 coalesced", node, len(its))
		}
		return len(its)
	})
	visitsFull := 0
	s.Traverse(0, n, func(NodeID, bool, uint32, int, int, bool) bool {
		visitsFull++
		return true
	})
	if visitsBatched != visitsFull {
		t.Fatalf("%d batched visits, want the %d of one full-range Traverse",
			visitsBatched, visitsFull)
	}
}

// Pruning: returning 0 from an internal node must suppress the whole
// subtree; pruning by mask must drop exactly the pruned items' leaves.
func TestTraverseManyPruning(t *testing.T) {
	data := make([]uint32, 64)
	for i := range data {
		data[i] = uint32(i % 8)
	}
	s := NewMatrix(data, 8)
	// Prune everything at the root: no leaves.
	leaves := 0
	s.TraverseMany([]RangeMask{{B: 0, E: 64, Mask: 1}},
		func(node NodeID, leaf bool, sym uint32, its []RangeMask) int {
			if leaf {
				leaves++
				return 0
			}
			return 0
		})
	if leaves != 0 {
		t.Fatalf("root pruning leaked %d leaves", leaves)
	}
	// Drop one of two masks at internal nodes: only the kept mask's
	// leaves survive.
	s.TraverseMany([]RangeMask{{B: 0, E: 32, Mask: 1}, {B: 32, E: 64, Mask: 2}},
		func(node NodeID, leaf bool, sym uint32, its []RangeMask) int {
			if leaf {
				for _, it := range its {
					if it.Mask != 1 {
						t.Fatalf("pruned mask %d reached leaf %d", it.Mask, sym)
					}
				}
				return 0
			}
			k := 0
			for _, it := range its {
				if it.Mask == 1 {
					its[k] = it
					k++
				}
			}
			return k
		})
}

func BenchmarkTraverseMany(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, sigma := 1<<16, uint32(128)
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(rng.Intn(int(sigma)))
	}
	m := NewMatrix(data, sigma)
	// A frontier-shaped workload: 1024 short disjoint ranges.
	var base []RangeMask
	for i := 0; i < 1024; i++ {
		b0 := i * (n / 1024)
		base = append(base, RangeMask{B: b0, E: b0 + 8, Mask: 1 << uint(i%8)})
	}
	nop := func(node NodeID, leaf bool, sym uint32, its []RangeMask) int { return len(its) }
	b.Run("batched", func(b *testing.B) {
		scratch := make([]RangeMask, len(base))
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			m.TraverseMany(scratch, nop)
		}
	})
	b.Run("per-item", func(b *testing.B) {
		nop1 := func(NodeID, bool, uint32, int, int, bool) bool { return true }
		for i := 0; i < b.N; i++ {
			for _, it := range base {
				m.Traverse(it.B, it.E, nop1)
			}
		}
	})
}
