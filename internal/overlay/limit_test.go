package overlay

import (
	"context"
	"math/rand"
	"testing"

	"ringrpq/internal/core"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// limitArm is one evaluator configuration TestLimitProperty runs.
type limitArm struct {
	name string
	ev   core.Evaluator
	opts core.Options
}

// staticArms are the kernel's option arms over g plus a 3-shard engine.
func staticArms(g *triples.Graph) []limitArm {
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	eng := core.NewEngine(ring.New(g, ring.WaveletMatrix), ids)
	sharded := core.NewShardedEngine(ring.NewShardSet(g, 3, nil, ring.WaveletMatrix), ids)
	return []limitArm{
		{"default", eng, core.Options{}},
		{"unbatched", eng, core.Options{DisableBatching: true}},
		{"nofast", eng, core.Options{DisableFastPaths: true}},
		{"interpreted", eng, core.Options{DisableCompiled: true}},
		{"compiled", eng, core.Options{CompileEager: true}},
		{"sharded3", sharded, core.Options{}},
	}
}

// limitQueries derives the four endpoint shapes of TestLimitProperty from
// expr: the constant object and the constant subject with the most
// answers over g (so that a small limit bites), then v→v over the
// nullable expr* and the non-nullable pa/expr.
func limitQueries(g *triples.Graph, expr pathexpr.Node) []core.Query {
	bySubject, byObject := map[uint32]int{}, map[uint32]int{}
	for _, p := range enginetest.Oracle(g, core.Variable, expr, core.Variable) {
		bySubject[p.S]++
		byObject[p.O]++
	}
	busiest := func(counts map[uint32]int) int64 {
		best, n := int64(0), 0
		for v, c := range counts {
			if c > n || c == n && int64(v) < best {
				best, n = int64(v), c
			}
		}
		return best
	}
	return []core.Query{
		{Subject: core.Variable, Expr: expr, Object: busiest(byObject)},
		{Subject: busiest(bySubject), Expr: expr, Object: core.Variable},
		{Subject: core.Variable, Expr: pathexpr.Star{X: expr}, Object: core.Variable},
		{Subject: core.Variable, Expr: pathexpr.Concat{L: pathexpr.Sym{Name: "pa"}, R: expr}, Object: core.Variable},
	}
}

// checkLimits evaluates every query on every arm at each limit: exactly
// min(limit, |oracle|) pairs must come back, distinct, each one in the
// oracle's answer over g.
func checkLimits(t *testing.T, g *triples.Graph, arms []limitArm, queries []core.Query, limits ...int) {
	t.Helper()
	for _, q := range queries {
		want := map[enginetest.Pair]bool{}
		for _, p := range enginetest.Oracle(g, q.Subject, q.Expr, q.Object) {
			want[p] = true
		}
		for _, limit := range limits {
			for _, arm := range arms {
				opts := arm.opts
				opts.Limit = limit
				got := map[enginetest.Pair]bool{}
				st, err := arm.ev.Eval(context.Background(), q, opts, func(s, o uint32) bool {
					p := enginetest.Pair{S: s, O: o}
					if got[p] || !want[p] {
						t.Fatalf("%s limit %d (%d, %s, %d): pair %v duplicate=%v or not in the oracle's answer",
							arm.name, limit, q.Subject, pathexpr.String(q.Expr), q.Object, p, got[p])
					}
					got[p] = true
					return true
				})
				if err != nil {
					t.Fatalf("%s limit %d (%d, %s, %d): %v", arm.name, limit, q.Subject, pathexpr.String(q.Expr), q.Object, err)
				}
				if n := min(limit, len(want)); len(got) != n || st.Results != n {
					t.Fatalf("%s limit %d (%d, %s, %d): %d pairs (stats %d), want %d of the oracle's %d",
						arm.name, limit, q.Subject, pathexpr.String(q.Expr), q.Object, len(got), st.Results, n, len(want))
				}
			}
		}
	}
}

// TestLimitProperty: whatever order the traversal puts its work in under
// Options.Limit, every arm — each kernel option, a 3-shard engine and
// an overlay with adds and tombstones — returns exactly
// min(limit, |answer|) distinct pairs of the oracle's answer, for
// constant-object, constant-subject, nullable and non-nullable v→v
// queries.
func TestLimitProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		np := 1 + rng.Intn(3)
		g := enginetest.RandomGraph(seed, 6+rng.Intn(24), np, 20+rng.Intn(150))
		arms := staticArms(g)
		sc, ov := buildScenario(t, 300+seed, 8+int(seed), 3, 90, 2, 1)
		ovArms := []limitArm{{"overlay", ov, core.Options{}}, {"overlay-unbatched", ov, core.Options{DisableBatching: true}}}
		for trial := 0; trial < 3; trial++ {
			expr := enginetest.RandomExpr(rng, np, 1+rng.Intn(3))
			checkLimits(t, g, arms, limitQueries(g, expr), 1, 3, 17)
			expr = enginetest.RandomExpr(rng, sc.np, 1+rng.Intn(3))
			checkLimits(t, sc.gMerged, ovArms, limitQueries(sc.gMerged, expr), 1, 3, 17)
		}
	}

	// A batched level of four one-position L_s ranges that can each report
	// one source, with three owed: the first descent covers three of them.
	// With distinct sources the limit is met exactly at its end; when two
	// ranges share a source it falls one short and the second descent
	// must supply the last pair.
	for _, shared := range []bool{false, true} {
		g, merged, ov := starScenario(t, shared)
		h, _ := g.Nodes.Lookup("h")
		q := []core.Query{{Subject: core.Variable, Expr: pathexpr.MustParse("(qa|qb|qc|qd)/pa"), Object: int64(h)}}
		checkLimits(t, g, staticArms(g), q, 1, 2, 3, 4, 17)
		checkLimits(t, merged, []limitArm{{"overlay", ov, core.Options{}}}, q, 1, 2, 3, 4, 17)
	}

	// Nullable v→v: the self-pairs come first, and a phase-1 candidate
	// whose paths only lead back to itself yields nothing more, so phase 1
	// must not stop at the pairs still owed. The self-looped a and b are
	// found before c, the source of the one other pair.
	b := triples.NewBuilder()
	b.Add("a", "pa", "a")
	b.Add("b", "pa", "b")
	b.Add("c", "pa", "d")
	g := b.Build()
	star := core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("pa*"), Object: core.Variable}
	checkLimits(t, g, staticArms(g), []core.Query{star}, 5, 6)
}

// starScenario builds the graph x_i -q_i-> m_i -pa-> h (i = 1..4; with
// shared, x1 is also m2's source) plus a decoy edge, and an overlay that
// tombstones the decoy and adds an edge away from h: both touch the
// query's predicates, so the overlay engine runs the union kernel on an
// unchanged answer. It returns the static graph, the merged graph and
// the overlay engine.
func starScenario(t *testing.T, shared bool) (*triples.Graph, *triples.Graph, *Engine) {
	t.Helper()
	nodes := []string{"h", "m1", "m2", "m3", "m4", "x1", "x2", "x3", "x4", "y", "z", "m9", "x9"}
	preds := []string{"pa", "qa", "qb", "qc", "qd"}
	type edge struct{ s, p, o string }
	static := []edge{
		{"m1", "pa", "h"}, {"m2", "pa", "h"}, {"m3", "pa", "h"}, {"m4", "pa", "h"},
		{"x1", "qa", "m1"}, {"x2", "qb", "m2"}, {"x3", "qc", "m3"}, {"x4", "qd", "m4"},
		{"y", "qa", "z"},
	}
	if shared {
		static[5] = edge{"x1", "qb", "m2"}
	}
	added, deleted := edge{"x9", "qd", "m9"}, edge{"y", "qa", "z"}
	build := func(es []edge) *triples.Graph {
		b := triples.NewBuilder()
		for _, n := range nodes {
			b.Nodes().Intern(n)
		}
		for _, p := range preds {
			b.Preds().Intern(p)
		}
		for _, e := range es {
			b.Add(e.s, e.p, e.o)
		}
		return b.Build()
	}
	g := build(static)
	var live []edge
	for _, e := range static {
		if e != deleted {
			live = append(live, e)
		}
	}
	merged := build(append(live, added))

	r := ring.New(g, ring.WaveletMatrix)
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	complete := func(e edge) []Edge {
		s, _ := g.Nodes.Lookup(e.s)
		o, _ := g.Nodes.Lookup(e.o)
		p, _ := g.PredID(e.p, false)
		return []Edge{{S: s, P: p, O: o}, {S: o, P: p + g.NumPreds, O: s}}
	}
	ov := New().Apply(1, complete(added), complete(deleted), func(e Edge) bool { return r.Has(e.S, e.P, e.O) })
	eng := NewEngine(core.NewEngine(r, ids), []*ring.Ring{r}, ids, g.NumCompletedPreds())
	eng.SetSnapshot(ov, g.NumNodes())
	return g, merged, eng
}
