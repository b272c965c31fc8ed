package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// staticArms are the kernel's option arms over g.
func staticArms(g *triples.Graph) []limitArm {
	eng := core.NewEngine(ring.New(g, ring.WaveletMatrix), idsOf(g))
	return []limitArm{
		{"default", eng, core.Options{}},
		{"unbatched", eng, core.Options{DisableBatching: true}},
		{"nofast", eng, core.Options{DisableFastPaths: true}},
		{"interpreted", eng, core.Options{DisableCompiled: true}},
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
// oracle's answer over g; limit 0 must return the whole answer.
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
				n := len(want)
				if limit > 0 {
					n = min(limit, n)
				}
				if len(got) != n || st.Results != n {
					t.Fatalf("%s limit %d (%d, %s, %d): %d pairs (stats %d), want %d of the oracle's %d",
						arm.name, limit, q.Subject, pathexpr.String(q.Expr), q.Object, len(got), st.Results, n, len(want))
				}
			}
		}
	}
}

// TestLimitProperty: whatever order the traversal puts its work in under
// Options.Limit, every arm — each kernel option and an overlay with
// adds and tombstones — returns exactly
// min(limit, |answer|) distinct pairs of the oracle's answer, for
// constant-object, constant-subject, nullable and non-nullable v→v
// queries.
func TestLimitProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		np := 1 + rng.Intn(3)
		g := enginetest.RandomGraph(seed, 6+rng.Intn(24), np, 20+rng.Intn(150))
		arms := staticArms(g)
		sc, ov := buildScenario(t, 300+seed, 8+int(seed), 3, 90, 2)
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
// query's predicates, so the kernel runs over the union graph on an
// unchanged answer. It returns the static graph, the merged graph and
// the kernel with the overlay attached.
func starScenario(t *testing.T, shared bool) (*triples.Graph, *triples.Graph, *core.Engine) {
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
	eng := core.NewEngine(r, ids)
	eng.SetDelta(ov, g.NumNodes())
	return g, merged, eng
}

// TestLimitDeferredHub drives the deferred part-2 installments of a
// limited traversal (core's part2 and resumeDeferred) against the
// oracle. In hubScenario the hub's pb in-range is longer than every
// installment, and its tail holds tombstoned in-edges and nodes that
// overlay adds enter. Every arm — batched and unbatched, static and
// with the overlay — must return
// min(limit, |answer|) distinct pairs of the answer. The constant-
// endpoint answers are shorter than the largest limit, so that limit
// returns them whole only if every deferred tail was resumed.
func TestLimitDeferredHub(t *testing.T) {
	g, merged, ovArms := hubScenario(t)
	hub, _ := g.Nodes.Lookup("hub")
	var queries []core.Query
	for _, src := range []string{"pa/pb*", "(pa/pb)*"} {
		expr := pathexpr.MustParse(src)
		queries = append(queries,
			core.Query{Subject: core.Variable, Expr: expr, Object: int64(hub)},
			core.Query{Subject: int64(hub), Expr: pathexpr.InverseOf(expr), Object: core.Variable},
			core.Query{Subject: core.Variable, Expr: expr, Object: core.Variable})
	}
	for _, q := range queries {
		if q.Subject == core.Variable && q.Object == core.Variable {
			continue
		}
		for _, gr := range []*triples.Graph{g, merged} {
			if n := len(enginetest.Oracle(gr, q.Subject, q.Expr, q.Object)); n <= hubInstallment || n >= 1000 {
				t.Fatalf("(%d, %s, %d) has %d answers, want between %d and 1000",
					q.Subject, pathexpr.String(q.Expr), q.Object, n, hubInstallment)
			}
		}
	}
	limits := []int{1, 10, 64, 65, 1000, 0}
	checkLimits(t, g, staticArms(g), queries, limits...)
	checkLimits(t, merged, ovArms, queries, limits...)
}

// hubInstallment is the installment a traversal at limit 1000 starts
// with (max(1000/8, 64) positions).
const hubInstallment = 125

// hubScenario builds a static graph with hub ← pb ← x_i ← pa ← y_i
// (i < 300) plus pb edges x_i → x_{i+150} (i < 150, i%5 = 0), and an
// overlay over it that tombstones every seventh x_i → hub and every
// thirteenth y_i → x_i, and adds pa edges into every eleventh x_i and
// pb/pa edges hub ← z_k ← w_k (k < 80), from nodes interned after the
// build. It returns the static graph, the merged graph and the union
// kernel, batched and unbatched.
func hubScenario(t *testing.T) (*triples.Graph, *triples.Graph, []limitArm) {
	t.Helper()
	type edge struct{ s, p, o string }
	x := func(i int) string { return fmt.Sprintf("x%03d", i) }
	var static, adds, dels []edge
	for i := 0; i < 300; i++ {
		y := fmt.Sprintf("y%03d", i)
		static = append(static, edge{x(i), "pb", "hub"}, edge{y, "pa", x(i)})
		if i%7 == 3 {
			dels = append(dels, edge{x(i), "pb", "hub"})
		}
		if i%13 == 4 {
			dels = append(dels, edge{y, "pa", x(i)})
		}
		if i%11 == 5 {
			adds = append(adds, edge{fmt.Sprintf("v%03d", i), "pa", x(i)})
		}
		if i < 150 && i%5 == 0 {
			static = append(static, edge{x(i), "pb", x(i + 150)})
		}
	}
	for k := 0; k < 80; k++ {
		z := fmt.Sprintf("z%03d", k)
		adds = append(adds, edge{z, "pb", "hub"}, edge{fmt.Sprintf("w%03d", k), "pa", z})
	}
	// The static graph's names in order of first use; the adds' sources
	// are interned after its build, as live updates do.
	var names []string
	known := map[string]bool{}
	intern := func(es []edge) {
		for _, e := range es {
			for _, n := range []string{e.s, e.o} {
				if !known[n] {
					known[n] = true
					names = append(names, n)
				}
			}
		}
	}
	intern(static)
	ringNodes := len(names)
	intern(adds)
	build := func(nodes []string, es []edge) *triples.Graph {
		b := triples.NewBuilder()
		for _, n := range nodes {
			b.Nodes().Intern(n)
		}
		b.Preds().Intern("pa")
		b.Preds().Intern("pb")
		for _, e := range es {
			b.Add(e.s, e.p, e.o)
		}
		return b.Build()
	}
	g := build(names[:ringNodes], static)
	for _, n := range names[ringNodes:] {
		g.Nodes.Intern(n)
	}
	gone := map[edge]bool{}
	for _, e := range dels {
		gone[e] = true
	}
	live := slices.Clone(adds)
	for _, e := range static {
		if !gone[e] {
			live = append(live, e)
		}
	}
	merged := build(names, live)

	complete := func(es []edge) []Edge {
		var out []Edge
		for _, e := range es {
			s, _ := g.Nodes.Lookup(e.s)
			o, _ := g.Nodes.Lookup(e.o)
			p, _ := g.PredID(e.p, false)
			out = append(out, Edge{S: s, P: p, O: o}, Edge{S: o, P: p + g.NumPreds, O: s})
		}
		return out
	}
	r := ring.New(g, ring.WaveletMatrix)
	ov := New().Apply(1, complete(adds), complete(dels), func(e Edge) bool { return r.Has(e.S, e.P, e.O) })
	eng := core.NewEngine(r, idsOf(g))
	eng.SetDelta(ov, g.NumNodes())
	return g, merged, []limitArm{
		{"overlay", eng, core.Options{}},
		{"overlay-unbatched", eng, core.Options{DisableBatching: true}},
	}
}
