package overlay

import (
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
	if got := len(ov.BatchesAfter(2)); got != 2 {
		t.Fatalf("BatchesAfter(2) = %d batches, want 2", got)
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
	if ov.MaxNode() != 6 {
		t.Fatalf("MaxNode = %d, want 6", ov.MaxNode())
	}
}

func TestReplay(t *testing.T) {
	_, inStaticOld := staticSet(edge(0, 0, 1))
	ov := New()
	ov = ov.Apply(1, []Edge{edge(1, 0, 2)}, nil, inStaticOld)
	ov = ov.Apply(2, []Edge{edge(2, 0, 3)}, []Edge{edge(0, 0, 1)}, inStaticOld)
	ov = ov.Apply(3, nil, []Edge{edge(1, 0, 2)}, inStaticOld)

	// Compact as of version 2: the new static base holds exactly the
	// union at version 2; replaying the remaining batch against it must
	// tombstone (1,0,2) there.
	_, inStaticNew := staticSet(edge(1, 0, 2), edge(2, 0, 3))
	res := Replay(ov.BatchesAfter(2), inStaticNew)
	if res.AddCount() != 0 || res.DelCount() != 1 || !res.Deleted(edge(1, 0, 2)) {
		t.Fatalf("replayed residual wrong: %d adds, %d dels", res.AddCount(), res.DelCount())
	}
	if res.Version() != 3 {
		t.Fatalf("residual version = %d, want 3", res.Version())
	}
}
