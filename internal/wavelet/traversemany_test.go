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
	// The shape of L_s: one-position ranges over a large alphabet, so
	// below the top levels most nodes keep a lone item.
	subjects := make([]uint32, n)
	for i := range subjects {
		subjects[i] = uint32(rng.Intn(1 << 14))
	}
	sm := NewMatrix(subjects, 1<<14)
	var singles []RangeMask
	for i := 0; i < 1024; i++ {
		b0 := i*(n/1024) + i%61
		singles = append(singles, RangeMask{B: b0, E: b0 + 1, Mask: 1 << uint(i%8)})
	}
	b.Run("singletons", func(b *testing.B) {
		scratch := make([]RangeMask, len(singles))
		for i := 0; i < b.N; i++ {
			copy(scratch, singles)
			sm.TraverseMany(scratch, nop)
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

// visitRec is one callback of a descent: the node and the items (for
// Traverse, the one range) it received, copied before pruning.
type visitRec struct {
	node  NodeID
	leaf  bool
	items []RangeMask
}

// keepItem is a pruning decision that depends only on what a callback
// sees, so two descents that reach a node with the same items prune
// alike; about one item in four is dropped.
func keepItem(seed uint64, node NodeID, it RangeMask) bool {
	h := seed ^ uint64(node)*0x9e3779b97f4a7c15 ^ uint64(it.B)<<20 ^ uint64(it.E)<<40 ^ it.Mask*0xbf58476d1ce4e5b9 ^ uint64(it.Tag)<<7
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h%4 != 0
}

// pruningVisit returns a VisitMany that records every callback in *rec
// and keeps the items keepItem keeps.
func pruningVisit(seed uint64, rec *[]visitRec) VisitMany {
	return func(node NodeID, leaf bool, sym uint32, its []RangeMask) int {
		*rec = append(*rec, visitRec{node, leaf, append([]RangeMask(nil), its...)})
		if leaf {
			return 0
		}
		k := 0
		for _, it := range its {
			if keepItem(seed, node, it) {
				its[k] = it
				k++
			}
		}
		return k
	}
}

// pushNaive appends it to dst, merging it into the last item when they
// touch and carry the same mask and tag; empty items are dropped.
func pushNaive(dst []RangeMask, it RangeMask) []RangeMask {
	if it.B >= it.E {
		return dst
	}
	if n := len(dst); n > 0 && dst[n-1].E == it.B && dst[n-1].Mask == it.Mask && dst[n-1].Tag == it.Tag {
		dst[n-1].E = it.E
		return dst
	}
	return append(dst, it)
}

// naiveMany is the reference for TraverseMany's callbacks: a
// left-first depth-first descent that maps every item through two
// Rank0 calls at every node, builds fresh child lists and takes no
// shortcut. Children that receive no items are not visited.
func naiveMany(m *Matrix, level int, prefix uint32, items []RangeMask, visit VisitMany) {
	if len(items) == 0 {
		return
	}
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
	bv, z := m.levels[level], m.zeros[level]
	var left, right []RangeMask
	for _, it := range items[:max(k, 0)] {
		lb, le := bv.Rank0(it.B), bv.Rank0(it.E)
		left = pushNaive(left, RangeMask{B: lb, E: le, Mask: it.Mask, Tag: it.Tag})
		right = pushNaive(right, RangeMask{B: z + it.B - lb, E: z + it.E - le, Mask: it.Mask, Tag: it.Tag})
	}
	naiveMany(m, level+1, prefix<<1, left, visit)
	naiveMany(m, level+1, prefix<<1|1, right, visit)
}

// naiveOne is the reference for Traverse's callbacks, likewise: two
// Rank0 calls per visited node.
func naiveOne(m *Matrix, level int, prefix uint32, b, e int, visit Visit) {
	if b >= e {
		return
	}
	id := NodeID(1<<level | int(prefix))
	if level == m.width {
		if prefix < m.sigma {
			s := int(m.bottomStart[prefix])
			visit(id, true, prefix, b-s, e-s, b == s && e-s == m.Count(prefix))
		}
		return
	}
	if !visit(id, false, 0, b, e, false) {
		return
	}
	bv, z := m.levels[level], m.zeros[level]
	lb, le := bv.Rank0(b), bv.Rank0(e)
	naiveOne(m, level+1, prefix<<1, lb, le, visit)
	naiveOne(m, level+1, prefix<<1|1, z+b-lb, z+e-le, visit)
}

// visitItems draws sorted items over [0, n) that exercise every shape
// the descents special-case: one-position items, items ending at n,
// touching items with equal and with different masks and tags, and
// overlapping items.
func visitItems(rng *rand.Rand, n int) []RangeMask {
	var items []RangeMask
	for i, count := 0, 1+rng.Intn(12); i < count; i++ {
		b := rng.Intn(n)
		var e int
		switch rng.Intn(4) {
		case 0:
			e = b + 1
		case 1:
			e = n
		default:
			e = b + 1 + rng.Intn(n-b)
		}
		items = append(items, RangeMask{B: b, E: e, Mask: 1 << uint(rng.Intn(3)), Tag: uint32(rng.Intn(2))})
		if rng.Intn(3) == 0 && e < n {
			// A neighbour touching it, same or different mask and tag.
			items = append(items, RangeMask{B: e, E: e + 1 + rng.Intn(n-e), Mask: 1 << uint(rng.Intn(2)), Tag: uint32(rng.Intn(2))})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].B < items[j].B })
	return items
}

// normalizeNaive clamps and coalesces items as TraverseMany's prologue
// does.
func normalizeNaive(items []RangeMask, n int) []RangeMask {
	var out []RangeMask
	for _, it := range items {
		it.B, it.E = max(it.B, 0), min(it.E, n)
		out = pushNaive(out, it)
	}
	return out
}

// TraverseMany and Traverse must fire their callbacks on exactly the
// nodes, in exactly the order and with exactly the items of a naive
// two-ranks-per-node descent, under pruning that drops items mid-way:
// the wavelet-visit, product-node and product-edge counts of the RPQ
// engine are counts of these callbacks.
func TestTraverseExactVisits(t *testing.T) {
	sigmas := []uint32{1, 2, 3, 5, 8, 13, 37, 64, 100}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		if seed%5 == 0 {
			n = 64 * (1 + rng.Intn(4)) // items ending at a word end and at Len()
		}
		sigma := sigmas[seed%int64(len(sigmas))]
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(rng.Intn(int(sigma)))
		}
		m := NewMatrix(data, sigma)
		items := visitItems(rng, n)
		pseed := uint64(seed) * 0x2545f4914f6cdd1d

		var want, got []visitRec
		naiveMany(m, 0, 0, normalizeNaive(items, n), pruningVisit(pseed, &want))
		m.TraverseMany(append([]RangeMask(nil), items...), pruningVisit(pseed, &got))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (n %d, σ %d, items %v): TraverseMany visits\n got: %v\nwant: %v", seed, n, sigma, items, got, want)
		}

		for _, it := range items {
			record := func(rec *[]visitRec) Visit {
				return func(node NodeID, leaf bool, sym uint32, b, e int, full bool) bool {
					r := RangeMask{B: b, E: e}
					if full {
						r.Tag = 1
					}
					*rec = append(*rec, visitRec{node, leaf, []RangeMask{r}})
					return leaf || keepItem(pseed, node, RangeMask{B: b, E: e})
				}
			}
			want, got = want[:0], got[:0]
			naiveOne(m, 0, 0, it.B, it.E, record(&want))
			m.Traverse(it.B, it.E, record(&got))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (n %d, σ %d): Traverse(%d, %d) visits\n got: %v\nwant: %v", seed, n, sigma, it.B, it.E, got, want)
			}
		}
	}
}

// Leaves arrive in increasing symbol order, and inside a leaf the
// items of disjoint sorted input arrive in increasing B: the RPQ
// engine's part 2 relies on it to take the C-array offsets of part 1's
// leaves as sorted L_s ranges without sorting them.
func TestTraverseManyLeafOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		sigma := uint32(1 + rng.Intn(70))
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(rng.Intn(int(sigma)))
		}
		m := NewMatrix(data, sigma)
		items := randomDisjointItems(rng, n, 1+rng.Intn(30))
		prev := -1
		m.TraverseMany(items, func(node NodeID, leaf bool, sym uint32, its []RangeMask) int {
			if !leaf {
				return len(its)
			}
			if int(sym) <= prev {
				t.Fatalf("seed %d: leaf %d after leaf %d", seed, sym, prev)
			}
			prev = int(sym)
			for i := 1; i < len(its); i++ {
				if its[i].B < its[i-1].E {
					t.Fatalf("seed %d: leaf %d items out of order: %v", seed, sym, its)
				}
			}
			return 0
		})
	}
}
