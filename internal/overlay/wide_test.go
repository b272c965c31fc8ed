package overlay

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ringrpq/internal/core"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// The multiword fallback expands a node by distinct predicate, then by
// distinct subject, like the narrow path: Stats.ProductEdges counts
// predicate leaves reached in part 1 (edge groups), not edges. A hub
// with 10 000 in-edges under one predicate is one group, and the
// fallback reports the same pairs as the
// default options. With a tombstone and an overlay add entering the hub
// only the pairs are compared (adds are stepped per edge on both
// paths).
func TestWideStepCountsEdgeGroups(t *testing.T) {
	const fan = 10000
	b := triples.NewBuilder()
	for i := 0; i < fan; i++ {
		b.Add(fmt.Sprintf("s%05d", i), "p", "hub")
	}
	b.Add("hub", "q", "s00000")
	b.Add("s00001", "r", "s00002")
	g := b.Build()
	staticNodes := g.NumNodes()
	hub, _ := g.Nodes.Lookup("hub")
	gone, _ := g.Nodes.Lookup("s00007")
	fresh := g.Nodes.Intern("late") // overlay-only node: id beyond the ring
	p, _ := g.PredID("p", false)
	pInv, _ := g.PredID("p", true)
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }

	eval := func(e *core.Engine, opts core.Options) (core.Stats, []enginetest.Pair) {
		t.Helper()
		var got []enginetest.Pair
		q := core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("p"), Object: int64(hub)}
		st, err := e.Eval(context.Background(), q, opts, func(s, o uint32) bool {
			got = append(got, enginetest.Pair{S: s, O: o})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, func(a, b enginetest.Pair) int { return cmp.Compare(a.S, b.S) })
		return st, got
	}

	r := ring.New(g, ring.WaveletMatrix)
	e := core.NewEngine(r, ids)

	_, want := eval(e, core.Options{})
	st, got := eval(e, core.Options{DisableCompiled: true})
	if len(want) != fan || !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback reports %d pairs, default %d, want %d equal ones", len(got), len(want), fan)
	}
	if st.ProductEdges != 1 {
		t.Fatalf("ProductEdges=%d under DisableCompiled, want 1 (one predicate leaf)", st.ProductEdges)
	}

	inStatic := func(ed Edge) bool { return r.Has(ed.S, ed.P, ed.O) }
	ov := New().Apply(1,
		[]Edge{{S: fresh, P: p, O: hub}, {S: hub, P: pInv, O: fresh}},
		[]Edge{{S: gone, P: p, O: hub}, {S: hub, P: pInv, O: gone}}, inStatic)
	e.SetDelta(ov, staticNodes+1)
	_, want = eval(e, core.Options{})
	_, got = eval(e, core.Options{DisableCompiled: true})
	if len(want) != fan || !reflect.DeepEqual(got, want) {
		t.Fatalf("with delta: fallback reports %d pairs, default %d, want %d equal ones", len(got), len(want), fan)
	}
	for _, pr := range got {
		if pr.S == gone {
			t.Fatal("tombstoned edge reported")
		}
	}
	if got[len(got)-1].S != fresh {
		t.Fatal("overlay add entering the hub not reported")
	}
}
