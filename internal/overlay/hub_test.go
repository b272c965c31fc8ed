package overlay

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ringrpq/internal/core"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// A step into a hub with 10 000 in-edges under one predicate reports
// every source once, on the default path: the ring alone, then with a
// tombstone and an overlay-only add entering the hub, against the
// expected pairs.
func TestHubStepPairs(t *testing.T) {
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

	eval := func(e *core.Engine) []enginetest.Pair {
		t.Helper()
		var got []enginetest.Pair
		q := core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("p"), Object: int64(hub)}
		if _, err := e.Eval(context.Background(), q, core.Options{}, func(s, o uint32) bool {
			got = append(got, enginetest.Pair{S: s, O: o})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return enginetest.SortPairs(got)
	}
	var ringPairs, unionPairs []enginetest.Pair
	for i := 0; i < fan; i++ {
		s, _ := g.Nodes.Lookup(fmt.Sprintf("s%05d", i))
		ringPairs = append(ringPairs, enginetest.Pair{S: s, O: hub})
		if s != gone {
			unionPairs = append(unionPairs, enginetest.Pair{S: s, O: hub})
		}
	}
	unionPairs = append(unionPairs, enginetest.Pair{S: fresh, O: hub})

	r := ring.New(g, ring.WaveletMatrix)
	e := core.NewEngine(r, ids)
	if got := eval(e); !reflect.DeepEqual(got, enginetest.SortPairs(ringPairs)) {
		t.Fatalf("ring: %d pairs, want the %d sources", len(got), fan)
	}

	inStatic := func(ed Edge) bool { return r.Has(ed.S, ed.P, ed.O) }
	ov := New().Apply(1,
		[]Edge{{S: fresh, P: p, O: hub}, {S: hub, P: pInv, O: fresh}},
		[]Edge{{S: gone, P: p, O: hub}, {S: hub, P: pInv, O: gone}}, inStatic)
	e.SetDelta(ov, staticNodes+1)
	if got := eval(e); !reflect.DeepEqual(got, enginetest.SortPairs(unionPairs)) {
		t.Fatalf("with delta: %d pairs, want %d sources without the tombstoned one plus the add", len(got), fan)
	}
}
