package overlay

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

func edge(s, p, o uint32) Edge { return Edge{S: s, P: p, O: o} }

// staticSet builds an inStatic callback from a fixed edge set.
func staticSet(es ...Edge) (map[Edge]bool, func(Edge) bool) {
	m := map[Edge]bool{}
	for _, e := range es {
		m[e] = true
	}
	return m, func(e Edge) bool { return m[e] }
}

func TestApplySemantics(t *testing.T) {
	_, inStatic := staticSet(edge(0, 0, 1), edge(1, 0, 2))
	ov := New()

	// Add a new edge plus a duplicate of a static one: only the new one
	// lands in the overlay.
	ov = ov.Apply(1, []Edge{edge(2, 0, 3), edge(0, 0, 1)}, nil, inStatic)
	if ov.AddCount() != 1 || !ov.Has(edge(2, 0, 3)) {
		t.Fatalf("adds = %d, want the single novel edge", ov.AddCount())
	}
	if ov.DelCount() != 0 || ov.Empty() {
		t.Fatalf("unexpected dels/empty state")
	}

	// Delete a static edge (tombstone), a pending add (cancelled), and
	// an absent edge (no-op).
	ov = ov.Apply(2, nil, []Edge{edge(1, 0, 2), edge(2, 0, 3), edge(9, 9, 9)}, inStatic)
	if ov.AddCount() != 0 {
		t.Fatalf("adds = %d after cancelling the pending add", ov.AddCount())
	}
	if ov.DelCount() != 1 || !ov.Deleted(edge(1, 0, 2)) {
		t.Fatalf("dels = %d, want one tombstone", ov.DelCount())
	}

	// Re-adding a tombstoned edge revives it.
	ov = ov.Apply(3, []Edge{edge(1, 0, 2)}, nil, inStatic)
	if ov.DelCount() != 0 || ov.AddCount() != 0 || !ov.Empty() {
		t.Fatalf("revival should cancel the tombstone: %d adds, %d dels", ov.AddCount(), ov.DelCount())
	}

	// Within one batch, deletes win over adds.
	ov = ov.Apply(4, []Edge{edge(5, 1, 6)}, []Edge{edge(5, 1, 6)}, inStatic)
	if ov.AddCount() != 0 || ov.DelCount() != 0 {
		t.Fatalf("same-batch add+del should cancel: %d adds, %d dels", ov.AddCount(), ov.DelCount())
	}

	if ov.Version() != 4 {
		t.Fatalf("version = %d, want 4", ov.Version())
	}
}

func TestInEdgesAndCounts(t *testing.T) {
	_, inStatic := staticSet(edge(0, 1, 7), edge(1, 1, 7), edge(2, 1, 7))
	ov := New()
	ov = ov.Apply(1, []Edge{edge(3, 0, 5), edge(4, 2, 5), edge(3, 2, 5)}, []Edge{edge(0, 1, 7), edge(2, 1, 7)}, inStatic)

	got := ov.AddsInto(5)
	if len(got) != 3 {
		t.Fatalf("AddsInto(5) = %v, want 3 edges", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].O != 5 || cmpEdge(got[i-1], got[i]) >= 0 {
			t.Fatalf("AddsInto not ordered: %v", got)
		}
	}
	if ov.DeletedPS(1, 0) != 1 || ov.DeletedPS(1, 1) != 0 || ov.DeletedPS(1, 2) != 1 {
		t.Fatalf("DeletedPS counts wrong: %d %d %d", ov.DeletedPS(1, 0), ov.DeletedPS(1, 1), ov.DeletedPS(1, 2))
	}
	if !ov.TouchesPred(0) || !ov.TouchesPred(1) || !ov.TouchesPred(2) || ov.TouchesPred(3) {
		t.Fatalf("TouchesPred wrong")
	}
}

// TestDiff compacts as of version 2 and diffs what came after: the
// merged ring holds exactly the view at version 2, {(1,0,2), (2,0,3),
// (3,0,4)}, and over it the residual must re-add the static edge the
// base deleted, tombstone the edge the base added, keep the new add
// and tombstone the static edge deleted after the base.
func TestDiff(t *testing.T) {
	_, inStatic := staticSet(edge(0, 0, 1), edge(3, 0, 4))
	base := New().Apply(1, []Edge{edge(1, 0, 2)}, nil, inStatic)
	base = base.Apply(2, []Edge{edge(2, 0, 3)}, []Edge{edge(0, 0, 1)}, inStatic)
	ov := base.Apply(3, []Edge{edge(0, 0, 1), edge(5, 1, 6)}, []Edge{edge(1, 0, 2), edge(3, 0, 4)}, inStatic)

	res := Diff(base, ov)
	if got, want := res.Adds(), []Edge{edge(0, 0, 1), edge(5, 1, 6)}; !slices.Equal(got, want) {
		t.Fatalf("residual adds = %v, want %v", got, want)
	}
	if got, want := res.Dels(), []Edge{edge(1, 0, 2), edge(3, 0, 4)}; !slices.Equal(got, want) {
		t.Fatalf("residual dels = %v, want %v", got, want)
	}
	if res.Version() != 3 || res.DelsForPred(0) != 2 || !res.TouchesPred(1) || res.DelsForPred(1) != 0 {
		t.Fatalf("residual version %d, DelsForPred(0) %d, TouchesPred(1) %v",
			res.Version(), res.DelsForPred(0), res.TouchesPred(1))
	}
	if !Diff(ov, ov).Empty() {
		t.Fatal("an overlay's diff with itself is not empty")
	}
}

// refOverlay is the map-based consolidation Apply replaced, kept as the
// oracle: both sets rebuilt from scratch per batch.
type refOverlay struct {
	adds, dels map[Edge]bool
}

func (r *refOverlay) apply(adds, dels []Edge, inStatic func(Edge) bool) {
	for _, e := range adds {
		if r.dels[e] {
			delete(r.dels, e)
			continue
		}
		if inStatic(e) || r.adds[e] {
			continue
		}
		r.adds[e] = true
	}
	for _, e := range dels {
		if r.adds[e] {
			delete(r.adds, e)
			continue
		}
		if inStatic(e) {
			r.dels[e] = true
		}
	}
}

func sortedBy(set map[Edge]bool, cmp func(a, b Edge) int) []Edge {
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	slices.SortFunc(out, cmp)
	return out
}

// check compares every read accessor of ov with the reference sets.
func (r *refOverlay) check(t *testing.T, step int, ov *Overlay, nodes, preds uint32) {
	t.Helper()
	if got, want := ov.Adds(), sortedBy(r.adds, cmpEdge); !slices.Equal(got, want) {
		t.Fatalf("step %d: Adds = %v, want %v", step, got, want)
	}
	if got, want := ov.Dels(), sortedBy(r.dels, cmpEdge); !slices.Equal(got, want) {
		t.Fatalf("step %d: Dels = %v, want %v", step, got, want)
	}
	for p := uint32(0); p < preds; p++ {
		var byPred []Edge
		for _, e := range sortedBy(r.adds, cmpEdgePS) {
			if e.P == p {
				byPred = append(byPred, e)
			}
		}
		if got := ov.AddsByPred(p); !slices.Equal(got, byPred) {
			t.Fatalf("step %d: AddsByPred(%d) = %v, want %v", step, p, got, byPred)
		}
		delsForPred := 0
		delsPS := make([]int, nodes)
		for e := range r.dels {
			if e.P == p {
				delsForPred++
				delsPS[e.S]++
			}
		}
		if ov.DelsForPred(p) != delsForPred {
			t.Fatalf("step %d: DelsForPred(%d) = %d, want %d", step, p, ov.DelsForPred(p), delsForPred)
		}
		for s, want := range delsPS {
			if got := ov.DeletedPS(p, uint32(s)); got != want {
				t.Fatalf("step %d: DeletedPS(%d,%d) = %d, want %d", step, p, s, got, want)
			}
		}
		if ov.TouchesPred(p) != (len(byPred)+delsForPred > 0) {
			t.Fatalf("step %d: TouchesPred(%d) = %v", step, p, ov.TouchesPred(p))
		}
	}
	// No edge carries a predicate past the id space.
	for p := preds; p < preds+4; p++ {
		if ov.TouchesPred(p) {
			t.Fatalf("step %d: TouchesPred(%d) outside the %d predicates", step, p, preds)
		}
	}
}

// Apply must leave every accessor exactly where the map-based
// consolidation left it, after every batch of random sequences that
// add then delete, delete then re-add (tombstone revival), repeat an
// edge within one batch, and add and delete one edge in the same batch;
// and the Diff of every earlier version with the last must equal the
// reference replayed, from that version on, over the ring that version
// merges into.
func TestApplyMatchesMapReference(t *testing.T) {
	const nodes, preds = 6, 3
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func() Edge {
			return edge(uint32(rng.Intn(nodes)), uint32(rng.Intn(preds)), uint32(rng.Intn(nodes)))
		}
		static := map[Edge]bool{}
		for i := 0; i < 40; i++ {
			static[draw()] = true
		}
		inStatic := func(e Edge) bool { return static[e] }
		edges := func() []Edge {
			var es []Edge
			for i := rng.Intn(6); i > 0; i-- {
				e := draw()
				es = append(es, e)
				if rng.Intn(4) == 0 {
					es = append(es, e) // a duplicate within the batch
				}
			}
			return es
		}

		ovs := []*Overlay{New()} // ovs[v] is the version after batch v
		var batches [][2][]Edge  // batches[v-1] is batch v
		ref := &refOverlay{adds: map[Edge]bool{}, dels: map[Edge]bool{}}
		const steps = 60
		for v := uint64(1); v <= steps; v++ {
			adds, dels := edges(), edges()
			if len(adds) > 0 && rng.Intn(3) == 0 {
				dels = append(dels, adds[0]) // add and delete in one batch
			}
			ov := ovs[v-1].Apply(v, adds, dels, inStatic)
			ref.apply(adds, dels, inStatic)
			ref.check(t, int(v), ov, nodes, preds)
			if ov.Version() != v {
				t.Fatalf("step %d: version %d", v, ov.Version())
			}
			ovs = append(ovs, ov)
			batches = append(batches, [2][]Edge{adds, dels})
		}
		last := ovs[steps]
		for k, base := range ovs {
			// A compaction that started at version k merged base's
			// view into the ring; the rest of the batches replay
			// against that ring.
			merged := maps.Clone(static)
			for _, e := range base.Adds() {
				merged[e] = true
			}
			for _, e := range base.Dels() {
				delete(merged, e)
			}
			inMerged := func(e Edge) bool { return merged[e] }
			replayed := &refOverlay{adds: map[Edge]bool{}, dels: map[Edge]bool{}}
			for _, b := range batches[k:] {
				replayed.apply(b[0], b[1], inMerged)
			}
			res := Diff(base, last)
			replayed.check(t, -k, res, nodes, preds)
			if res.Version() != steps {
				t.Fatalf("seed %d: Diff from %d: version %d, want %d", seed, k, res.Version(), steps)
			}
		}
	}
}

// The overlay holds every consolidated edge twice (object-major and
// predicate-major), 12 bytes each time; SizeBytes must count both.
func TestSizeBytesCountsBothOrders(t *testing.T) {
	_, inStatic := staticSet(edge(0, 0, 1), edge(1, 0, 2), edge(2, 0, 3))
	ov := New().Apply(1, []Edge{edge(5, 0, 6)}, []Edge{edge(0, 0, 1)}, inStatic)
	base := ov.SizeBytes()
	// Same predicate, so the per-predicate counts keep their size: only
	// the consolidated sets grow.
	grown := ov.Apply(2, []Edge{edge(6, 0, 7), edge(7, 0, 8)}, []Edge{edge(1, 0, 2)}, inStatic)
	if got := grown.SizeBytes() - base; got != 3*24 {
		t.Fatalf("SizeBytes grew by %d for 3 consolidated edges, want %d", got, 3*24)
	}
}

// BenchmarkOverlayApply is the write path's per-batch consolidation: a
// 16-edge batch (32 completed) onto a 2 000-edge overlay.
func BenchmarkOverlayApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nodes, preds = 20000, 60
	batch := func(n int) []Edge {
		es := make([]Edge, 0, 2*n)
		for i := 0; i < n; i++ {
			s, p, o := uint32(rng.Intn(nodes)), uint32(rng.Intn(preds)), uint32(rng.Intn(nodes))
			es = append(es, edge(s, p, o), edge(o, p+preds, s))
		}
		return es
	}
	inStatic := func(Edge) bool { return false }
	ov := New().Apply(1, batch(2000), nil, inStatic)
	adds := batch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov.Apply(2, adds, nil, inStatic)
	}
}
