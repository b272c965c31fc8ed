package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// benchWorld builds a mid-sized graph with a given overlay fill for
// static-vs-union latency comparison.
func benchWorld(b *testing.B, fill float64) (*core.Engine, *Engine, *triples.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const nv, np, ne = 4000, 40, 20000
	tb := triples.NewBuilder()
	for i := 0; i < nv; i++ {
		tb.Nodes().Intern(fmt.Sprintf("n%04d", i))
	}
	for i := 0; i < np; i++ {
		tb.Preds().Intern(fmt.Sprintf("p%02d", i))
	}
	for i := 0; i < ne; i++ {
		// Zipf-ish predicate skew like the datagen graphs.
		p := uint32(rng.Intn(np)*rng.Intn(np)) / uint32(np)
		tb.AddIDs(uint32(rng.Intn(nv)), p, uint32(rng.Intn(nv)))
	}
	g := tb.Build()
	r := ring.New(g, ring.WaveletMatrix)
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	static := core.NewEngine(r, ids)

	target := int(fill * float64(g.Len()))
	ov := New()
	var adds []Edge
	for len(adds) < target {
		s, p, o := uint32(rng.Intn(nv)), uint32(rng.Intn(np)), uint32(rng.Intn(nv))
		if r.Has(s, p, o) {
			continue
		}
		adds = append(adds, Edge{S: s, P: p, O: o}, Edge{S: o, P: p + np, O: s})
	}
	ov = ov.Apply(1, adds, nil, func(e Edge) bool { return r.Has(e.S, e.P, e.O) })

	eng := NewEngine(static, []*ring.Ring{r}, ids, g.NumCompletedPreds())
	eng.SetSnapshot(ov, g.NumNodes())
	return static, eng, g
}

func benchQueries(g *triples.Graph, n int) []core.Query {
	rng := rand.New(rand.NewSource(11))
	var out []core.Query
	mk := func(name string) pathexpr.Node { return pathexpr.MustParse(name) }
	for i := 0; i < n; i++ {
		p1 := fmt.Sprintf("p%02d", rng.Intn(40))
		p2 := fmt.Sprintf("p%02d", rng.Intn(40))
		var q core.Query
		switch i % 7 {
		case 0:
			q = core.Query{Subject: core.Variable, Expr: mk(p1 + "/" + p2 + "*"), Object: int64(rng.Intn(g.NumNodes()))}
		case 1:
			q = core.Query{Subject: core.Variable, Expr: mk(p1 + "*"), Object: int64(rng.Intn(g.NumNodes()))}
		case 2:
			q = core.Query{Subject: int64(rng.Intn(g.NumNodes())), Expr: mk(p1 + "+"), Object: core.Variable}
		case 3:
			q = core.Query{Subject: core.Variable, Expr: mk("(" + p1 + "|" + p2 + ")*"), Object: int64(rng.Intn(g.NumNodes()))}
		case 4:
			q = core.Query{Subject: core.Variable, Expr: mk(p1 + "/" + p2), Object: core.Variable}
		case 5:
			q = core.Query{Subject: core.Variable, Expr: mk(p1 + "|" + p2), Object: core.Variable}
		default:
			q = core.Query{Subject: core.Variable, Expr: mk(p1 + "+"), Object: core.Variable}
		}
		out = append(out, q)
	}
	return out
}

func runAll(b *testing.B, ev core.Evaluator, qs []core.Query) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := ev.Eval(context.Background(), q, core.Options{Limit: 100000}, func(uint32, uint32) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkStaticReads(b *testing.B) {
	static, _, g := benchWorld(b, 0.10)
	qs := benchQueries(g, 50)
	runAll(b, static, qs) // warm compile
	b.ResetTimer()
	runAll(b, static, qs)
}

func BenchmarkUnionReads10(b *testing.B) {
	_, eng, g := benchWorld(b, 0.10)
	qs := benchQueries(g, 50)
	runAll(b, eng, qs)
	b.ResetTimer()
	runAll(b, eng, qs)
}
