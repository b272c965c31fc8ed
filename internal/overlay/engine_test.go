package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// scenario is one randomly generated static/overlay split with a known
// merged ground truth.
type scenario struct {
	gStatic *triples.Graph // ring built from this
	gMerged *triples.Graph // oracle evaluated over this
	r       *ring.Ring
	ov      *Overlay
	nv      int // merged node universe (≥ static nodes)
	np      int
}

type baseEdge struct{ s, p, o uint32 }

// buildScenario splits a random edge universe into a static part and a
// sequence of overlay batches (adds of the remainder plus deletions of
// static edges, applied in several rounds with some churn), interning
// identical names in identical order so ids agree across graphs.
func buildScenario(t *testing.T, seed int64, nv, np, ne, extraNodes int) (*scenario, *core.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	intern := func(b *triples.Builder, n int) {
		for i := 0; i < nv; i++ {
			b.Nodes().Intern(fmt.Sprintf("n%03d", i))
		}
		for i := 0; i < np; i++ {
			b.Preds().Intern(fmt.Sprintf("p%c", 'a'+i))
		}
		for i := nv; i < n; i++ {
			b.Nodes().Intern(fmt.Sprintf("n%03d", i))
		}
	}

	// Edge universe, deduped.
	seen := map[baseEdge]bool{}
	var universe []baseEdge
	for i := 0; i < ne; i++ {
		e := baseEdge{uint32(rng.Intn(nv)), uint32(rng.Intn(np)), uint32(rng.Intn(nv))}
		if !seen[e] {
			seen[e] = true
			universe = append(universe, e)
		}
	}
	// A few edges touching the post-build node ids.
	total := nv + extraNodes
	for i := 0; i < extraNodes; i++ {
		e := baseEdge{uint32(nv + i), uint32(rng.Intn(np)), uint32(rng.Intn(total))}
		if !seen[e] {
			seen[e] = true
			universe = append(universe, e)
		}
	}

	var static, pending []baseEdge
	for _, e := range universe {
		if int(e.s) < nv && int(e.o) < nv && rng.Intn(3) > 0 {
			static = append(static, e)
		} else {
			pending = append(pending, e)
		}
	}

	sb := triples.NewBuilder()
	intern(sb, nv) // static dictionary: original nodes only
	for _, e := range static {
		sb.AddIDs(e.s, e.p, e.o)
	}
	gStatic := sb.Build()
	if gStatic.Len() == 0 {
		t.Skip("empty static graph")
	}
	// Live updates intern new node names post-build, exactly like
	// DB.Apply does.
	for i := nv; i < total; i++ {
		gStatic.Nodes.Intern(fmt.Sprintf("n%03d", i))
	}

	r := ring.New(gStatic, ring.WaveletMatrix)
	inStatic := func(e Edge) bool { return r.Has(e.S, e.P, e.O) }

	npc := uint32(np)
	complete := func(es []baseEdge) []Edge {
		out := make([]Edge, 0, 2*len(es))
		for _, e := range es {
			out = append(out, Edge{S: e.s, P: e.p, O: e.o}, Edge{S: e.o, P: e.p + npc, O: e.s})
		}
		return out
	}

	// Apply the pending edges in batches, deleting some static edges and
	// churning (delete-then-revive) along the way.
	ov := New()
	version := uint64(0)
	alive := map[baseEdge]bool{}
	for _, e := range static {
		alive[e] = true
	}
	for len(pending) > 0 || version == 0 {
		n := 1 + rng.Intn(4)
		if n > len(pending) {
			n = len(pending)
		}
		adds := pending[:n]
		pending = pending[n:]
		var dels []baseEdge
		for _, e := range static {
			if alive[e] && rng.Intn(8) == 0 {
				dels = append(dels, e)
			}
		}
		version++
		ov = ov.Apply(version, complete(adds), complete(dels), inStatic)
		for _, e := range adds {
			alive[e] = true
		}
		for _, e := range dels {
			alive[e] = false
		}
		// Occasionally revive a deleted edge in its own batch.
		if rng.Intn(3) == 0 {
			for _, e := range static {
				if !alive[e] {
					version++
					ov = ov.Apply(version, complete([]baseEdge{e}), nil, inStatic)
					alive[e] = true
					break
				}
			}
		}
	}

	mb := triples.NewBuilder()
	intern(mb, total) // merged dictionary: full universe
	for e, ok := range alive {
		if ok {
			mb.AddIDs(e.s, e.p, e.o)
		}
	}
	gMerged := mb.Build()

	eng := core.NewEngine(r, idsOf(gStatic))
	eng.SetDelta(ov, gStatic.NumNodes())
	return &scenario{gStatic: gStatic, gMerged: gMerged, r: r, ov: ov, nv: total, np: np}, eng
}

func idsOf(g *triples.Graph) glushkov.SymbolIDs {
	return func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
}

// runCase compares one evaluation against the oracle.
func runCase(t *testing.T, sc *scenario, eng *core.Engine, subject int64, expr pathexpr.Node, object int64) {
	t.Helper()
	want := enginetest.SortPairs(enginetest.Oracle(sc.gMerged, subject, expr, object))
	// Both traversal modes (frontier-batched and item-at-a-time) and
	// both stepping tiers (compiled stepper, multiword interpreter) must
	// match the oracle.
	for _, opts := range []core.Options{
		{}, {DisableBatching: true}, {DisableCompiled: true},
	} {
		var got []enginetest.Pair
		_, err := eng.Eval(context.Background(), core.Query{Subject: subject, Expr: expr, Object: object}, opts, func(s, o uint32) bool {
			got = append(got, enginetest.Pair{S: s, O: o})
			return true
		})
		if err != nil {
			t.Fatalf("Eval(%v, %s, %v): %v", subject, pathexpr.String(expr), object, err)
		}
		got = enginetest.SortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("Eval(%v, %s, %v) batching=%v: %d pairs, oracle %d\n got=%v\nwant=%v",
				subject, pathexpr.String(expr), object, !opts.DisableBatching, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Eval(%v, %s, %v) batching=%v: pair %d = %v, oracle %v",
					subject, pathexpr.String(expr), object, !opts.DisableBatching, i, got[i], want[i])
			}
		}
	}
}

// TestUnionEngineDifferential checks the kernel with an overlay
// attached, and the overlay engine the benchmark module builds over the
// same ring and overlay, against the oracle over the merged graph.
func TestUnionEngineDifferential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sc, eng := buildScenario(t, 100+seed, 14, 4, 40, 2)
		probe := NewEngine(nil, []*ring.Ring{sc.r}, idsOf(sc.gStatic), sc.gStatic.NumCompletedPreds())
		probe.SetSnapshot(sc.ov, sc.gStatic.NumNodes())
		rng := rand.New(rand.NewSource(999 + seed))
		for q := 0; q < 30; q++ {
			expr := enginetest.RandomExpr(rng, sc.np, 1+rng.Intn(3))
			var subject, object int64 = core.Variable, core.Variable
			switch rng.Intn(4) {
			case 0:
				object = int64(rng.Intn(sc.nv))
			case 1:
				subject = int64(rng.Intn(sc.nv))
			case 2:
				subject = int64(rng.Intn(sc.nv))
				object = int64(rng.Intn(sc.nv))
			}
			runCase(t, sc, eng, subject, expr, object)
			runCase(t, sc, probe.Engine, subject, expr, object)
		}
	}
}

// TestUnionEngineWide drives the >64-state fallback: an expression with
// 72 Glushkov positions over a small updated graph.
func TestUnionEngineWide(t *testing.T) {
	sc, eng := buildScenario(t, 7, 10, 4, 25, 1)
	alt := pathexpr.Node(pathexpr.Sym{Name: "pa"})
	for _, n := range []string{"pb", "pc", "pd"} {
		alt = pathexpr.Alt{L: alt, R: pathexpr.Sym{Name: n}}
	}
	wide := pathexpr.Node(pathexpr.Opt{X: alt}) // 4 positions
	for i := 0; i < 17; i++ {                   // 72 positions total
		wide = pathexpr.Concat{L: wide, R: pathexpr.Opt{X: alt}}
	}
	runCase(t, sc, eng, core.Variable, wide, core.Variable)
	runCase(t, sc, eng, 3, wide, core.Variable)
	runCase(t, sc, eng, core.Variable, wide, 5)
	runCase(t, sc, eng, 2, wide, 9)
}

// countingDelta wraps a Delta and counts the kernel's traversal probes
// into it: in-edge and predicate-major runs of adds, and tombstone
// tests.
type countingDelta struct {
	core.Delta
	probes int
}

func (c *countingDelta) AddsInto(o uint32) []Edge   { c.probes++; return c.Delta.AddsInto(o) }
func (c *countingDelta) AddsByPred(p uint32) []Edge { c.probes++; return c.Delta.AddsByPred(p) }
func (c *countingDelta) AddsByPredSubject(p, s uint32) []Edge {
	c.probes++
	return c.Delta.AddsByPredSubject(p, s)
}
func (c *countingDelta) Deleted(e Edge) bool       { c.probes++; return c.Delta.Deleted(e) }
func (c *countingDelta) DeletedPS(p, s uint32) int { c.probes++; return c.Delta.DeletedPS(p, s) }
func (c *countingDelta) DelsForPred(p uint32) int  { c.probes++; return c.Delta.DelsForPred(p) }

// TestUnionEngineDelegates checks the kernel's delegation rule. A query
// whose predicates the overlay never touches runs without probing the
// overlay, and reports exactly the pairs and Stats of a kernel with no
// delta. A query over a touched predicate probes it, and so does a
// nullable one once overlay-only nodes exist.
func TestUnionEngineDelegates(t *testing.T) {
	b := triples.NewBuilder()
	b.Add("a", "pa", "b")
	b.Add("b", "pa", "c")
	b.Add("a", "pb", "c")
	g := b.Build()
	r := ring.New(g, ring.WaveletMatrix)
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	plain := core.NewEngine(r, ids)

	// The overlay touches only pb.
	pb, _ := g.PredID("pb", false)
	ov := New().Apply(1, []Edge{{S: 1, P: pb, O: 0}, {S: 0, P: pb + g.NumPreds, O: 1}}, nil,
		func(e Edge) bool { return r.Has(e.S, e.P, e.O) })
	cd := &countingDelta{Delta: ov}
	eng := core.NewEngine(r, ids)
	eng.SetDelta(cd, g.NumNodes())

	type run struct {
		pairs []enginetest.Pair
		st    core.Stats
	}
	eval := func(e *core.Engine, q core.Query) run {
		var out run
		st, err := e.Eval(context.Background(), q, core.Options{}, func(s, o uint32) bool {
			out.pairs = append(out.pairs, enginetest.Pair{S: s, O: o})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		out.st = st
		return out
	}
	c := int64(2)
	for _, q := range []core.Query{
		{Subject: core.Variable, Expr: pathexpr.MustParse("pa+"), Object: core.Variable},
		{Subject: core.Variable, Expr: pathexpr.MustParse("pa*"), Object: core.Variable},
		{Subject: core.Variable, Expr: pathexpr.MustParse("pa/pa"), Object: core.Variable},
		{Subject: core.Variable, Expr: pathexpr.MustParse("pa+"), Object: c},
		{Subject: c, Expr: pathexpr.MustParse("^pa*"), Object: core.Variable},
	} {
		want, got := eval(plain, q), eval(eng, q)
		if cd.probes != 0 {
			t.Fatalf("%s over untouched pa probed the overlay %d times", pathexpr.String(q.Expr), cd.probes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s delegated: %+v, no-delta kernel %+v", pathexpr.String(q.Expr), got, want)
		}
	}

	if eval(eng, core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("pb/pa?"), Object: core.Variable}); cd.probes == 0 {
		t.Fatal("query over touched pb must probe the overlay")
	}

	// A node minted by an update makes a nullable query relate it to
	// itself, so pa* can no longer be delegated.
	cd.probes = 0
	z := g.Nodes.Intern("z")
	eng.SetDelta(cd, g.NumNodes())
	got := eval(eng, core.Query{Subject: core.Variable, Expr: pathexpr.MustParse("pa*"), Object: core.Variable})
	if cd.probes == 0 {
		t.Fatal("nullable query with overlay-only nodes must probe the overlay")
	}
	if !slices.Contains(got.pairs, enginetest.Pair{S: z, O: z}) {
		t.Fatalf("pa* misses the overlay-only node's self-pair: %v", got.pairs)
	}
}

// TestUnionEngineLimitTimeout checks option handling parity.
func TestUnionEngineLimitTimeout(t *testing.T) {
	sc, eng := buildScenario(t, 11, 14, 4, 50, 1)
	expr := pathexpr.Star{X: pathexpr.Sym{Name: "pa"}}
	n := 0
	_, err := eng.Eval(context.Background(), core.Query{Subject: core.Variable, Expr: expr, Object: core.Variable},
		core.Options{Limit: 5}, func(s, o uint32) bool { n++; return true })
	if err != nil || n != 5 {
		t.Fatalf("limit run: n=%d err=%v, want 5 results", n, err)
	}
	_ = sc
}

// A 1ns deadline on a dense overlaid graph must interrupt the union
// traversal inside its per-edge/per-leaf loops — ring descents and
// overlay merges alike — in every mode and stepping tier.
func TestUnionEngineTimeoutProbedInInnerLoops(t *testing.T) {
	_, eng := buildScenario(t, 21, 150, 2, 1800, 100)
	expr := pathexpr.MustParse("(pa|pb)+")
	q := core.Query{Subject: core.Variable, Expr: expr, Object: core.Variable}
	for _, opts := range []core.Options{
		{Timeout: time.Nanosecond},
		{Timeout: time.Nanosecond, DisableBatching: true},
		{Timeout: time.Nanosecond, DisableCompiled: true},
	} {
		start := time.Now()
		_, err := eng.Eval(context.Background(), q, opts, func(s, o uint32) bool { return true })
		elapsed := time.Since(start)
		if err != core.ErrTimeout {
			t.Fatalf("opts=%+v: err=%v, want ErrTimeout", opts, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("opts=%+v: 1ns deadline took %v", opts, elapsed)
		}
	}
}
