package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ringrpq/internal/enginetest"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

func newEngine(g *triples.Graph, layout ring.Layout) *Engine {
	r := ring.New(g, layout)
	return NewEngine(r, func(s pathexpr.Sym) (uint32, bool) {
		return g.PredID(s.Name, s.Inverse)
	})
}

func collect(t *testing.T, e *Engine, q Query, opts Options) []enginetest.Pair {
	t.Helper()
	var out []enginetest.Pair
	_, err := e.Eval(context.Background(), q, opts, func(s, o uint32) bool {
		out = append(out, enginetest.Pair{S: s, O: o})
		return true
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return out
}

func mustID(t *testing.T, g *triples.Graph, name string) int64 {
	t.Helper()
	id, ok := g.Nodes.Lookup(name)
	if !ok {
		t.Fatalf("node %q missing", name)
	}
	return int64(id)
}

func checkAgainstOracle(t *testing.T, g *triples.Graph, e *Engine, s int64, expr string, o int64, opts Options) {
	t.Helper()
	node := pathexpr.MustParse(expr)
	want := enginetest.SortPairs(enginetest.Oracle(g, s, node, o))
	// Every case runs three ways — the hotness default, the compiled
	// stepper forced on, and the interpreter forced on — so the
	// compilation tier is differentially checked against the oracle on
	// the whole random-query corpus.
	variants := [...]struct {
		name string
		opts Options
	}{
		{"default", opts},
		{"compiled", withCompiled(opts)},
		{"interpreted", withInterpreted(opts)},
	}
	for _, v := range variants {
		got := enginetest.SortPairs(collect(t, e, Query{Subject: s, Expr: node, Object: o}, v.opts))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("(%d, %s, %d) %s: got %v, want %v", s, expr, o, v.name, got, want)
		}
	}
}

func withCompiled(opts Options) Options {
	opts.CompileEager, opts.DisableCompiled = true, false
	return opts
}

func withInterpreted(opts Options) Options {
	opts.CompileEager, opts.DisableCompiled = false, true
	return opts
}

// The paper's running example (§4, Figs. 5–6): the backward traversal of
// ^bus/l5+ from Baq reports SA and UCh — the nodes reachable from
// Baquedano "by following line 5 and then taking the bus once".
func TestPaperRunningExample(t *testing.T) {
	g := enginetest.Metro()
	for _, layout := range []ring.Layout{ring.WaveletMatrix, ring.WaveletTree} {
		e := newEngine(g, layout)
		baq := mustID(t, g, "Baq")
		got := collect(t, e, Query{
			Subject: Variable,
			Expr:    pathexpr.MustParse("^bus/l5+"),
			Object:  baq,
		}, Options{})
		names := map[string]bool{}
		for _, p := range got {
			names[g.Nodes.Name(p.S)] = true
			if p.O != uint32(baq) {
				t.Fatalf("object of %v is not Baq", p)
			}
		}
		if !names["SA"] || !names["UCh"] || len(names) != 2 {
			t.Fatalf("layout %v: sources=%v, want {SA, UCh}", layout, names)
		}
	}
}

// The forward form of the same example: (Baq, l5+/bus, y) must bind y to
// exactly SA and UCh.
func TestPaperExampleForwardForm(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	baq := mustID(t, g, "Baq")
	got := collect(t, e, Query{
		Subject: baq,
		Expr:    pathexpr.MustParse("l5+/bus"),
		Object:  Variable,
	}, Options{})
	names := map[string]bool{}
	for _, p := range got {
		names[g.Nodes.Name(p.O)] = true
	}
	if !names["SA"] || !names["UCh"] || len(names) != 2 {
		t.Fatalf("targets=%v, want {SA, UCh}", names)
	}
}

// (Baq, l5+/bus, y) from the §4 example: everything reachable from
// Baquedano by line 5 then one bus.
func TestPaperForwardExample(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	baq := mustID(t, g, "Baq")
	checkAgainstOracle(t, g, e, baq, "l5+/bus", Variable, Options{})
}

func TestMetroAllModesAgainstOracle(t *testing.T) {
	g := enginetest.Metro()
	exprs := []string{
		"l1", "^l1", "bus", "^bus", "l5+/^bus", "(l1|l2|l5)+", "l1*",
		"l1/l2", "bus|l5", "l1?/l2", "(l1/l2)+", "^bus/l5*", "l1+|bus",
	}
	sa := mustID(t, g, "SA")
	baq := mustID(t, g, "Baq")
	for _, layout := range []ring.Layout{ring.WaveletMatrix, ring.WaveletTree} {
		e := newEngine(g, layout)
		for _, expr := range exprs {
			for _, ends := range [][2]int64{
				{Variable, Variable}, {sa, Variable}, {Variable, baq}, {sa, baq}, {baq, baq},
			} {
				checkAgainstOracle(t, g, e, ends[0], expr, ends[1], Options{})
			}
		}
	}
}

// The main integration property test: on random graphs and random
// expressions, the ring engine must agree exactly with the relational
// oracle for every endpoint combination.
func TestRandomAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, np := 8+rng.Intn(15), 2+rng.Intn(3)
		g := enginetest.RandomGraph(seed, nv, np, 25+rng.Intn(60))
		e := newEngine(g, ring.WaveletMatrix)
		for trial := 0; trial < 6; trial++ {
			expr := enginetest.RandomExpr(rng, np, 3)
			s := int64(rng.Intn(g.NumNodes()))
			o := int64(rng.Intn(g.NumNodes()))
			node := pathexpr.String(expr)
			checkAgainstOracle(t, g, e, Variable, node, Variable, Options{})
			checkAgainstOracle(t, g, e, s, node, Variable, Options{})
			checkAgainstOracle(t, g, e, Variable, node, o, Options{})
			checkAgainstOracle(t, g, e, s, node, o, Options{})
		}
	}
}

// Fast paths must agree with the generic algorithm.
func TestFastPathsMatchGeneric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := enginetest.RandomGraph(seed, 15, 3, 60)
		e := newEngine(g, ring.WaveletMatrix)
		for _, expr := range []string{"pa", "^pb", "pa/pb", "pa/^pa", "pa|pb", "pa|pb|pc", "^pa|pb"} {
			node := pathexpr.MustParse(expr)
			q := Query{Subject: Variable, Expr: node, Object: Variable}
			fast := enginetest.SortPairs(collect(t, e, q, Options{}))
			slow := enginetest.SortPairs(collect(t, e, q, Options{DisableFastPaths: true}))
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("seed %d %s: fast=%v generic=%v", seed, expr, fast, slow)
			}
		}
	}
}

// The multiword fallback (m > 63) must agree with the oracle.
func TestWideFallback(t *testing.T) {
	g := enginetest.RandomGraph(3, 10, 2, 40)
	// Build a 64+-position expression equivalent to pa{64+} | pa/pb:
	// (pa?)^70 / (pa/pb)? has 72 positions and stays checkable.
	expr := "pa?"
	for i := 0; i < 69; i++ {
		expr += "/pa?"
	}
	node := pathexpr.MustParse(expr)
	a := glushkov.Build(node, func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) })
	if a.M <= glushkov.MaxEngineStates {
		t.Fatalf("expression too small to exercise the fallback: m=%d", a.M)
	}
	e := newEngine(g, ring.WaveletMatrix)
	s := int64(2)
	checkAgainstOracle(t, g, e, s, expr, Variable, Options{})
	checkAgainstOracle(t, g, e, Variable, expr, int64(1), Options{})
	checkAgainstOracle(t, g, e, Variable, expr, Variable, Options{})
}

func TestLimit(t *testing.T) {
	g := enginetest.RandomGraph(5, 20, 2, 100)
	e := newEngine(g, ring.WaveletMatrix)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("pa*"), Object: Variable}
	var count int
	stats, err := e.Eval(context.Background(), q, Options{Limit: 7}, func(s, o uint32) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 7 || stats.Results != 7 {
		t.Fatalf("limit: emitted %d (stats %d), want 7", count, stats.Results)
	}
}

func TestEmitFalseStops(t *testing.T) {
	g := enginetest.RandomGraph(5, 20, 2, 100)
	e := newEngine(g, ring.WaveletMatrix)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("pa|pb"), Object: Variable}
	count := 0
	if _, err := e.Eval(context.Background(), q, Options{}, func(s, o uint32) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("emit=false did not stop: %d emissions", count)
	}
}

func TestTimeout(t *testing.T) {
	// A large-ish dense graph with a star query; 1ns must trip the check.
	g := enginetest.RandomGraph(9, 200, 2, 4000)
	e := newEngine(g, ring.WaveletMatrix)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)*"), Object: Variable}
	_, err := e.Eval(context.Background(), q, Options{Timeout: 1}, func(s, o uint32) bool { return true })
	if err != ErrTimeout {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
}

// On a dense graph a single BFS level covers thousands of leaf
// expansions, so the deadline must be probed inside the part-1/part-2
// inner loops — per leaf, not only per frontier entry — in every
// traversal mode and stepping tier. A 1ns budget must come back in
// bounded time with ErrTimeout, never run a huge level to completion.
func TestTimeoutProbedInInnerLoops(t *testing.T) {
	g := enginetest.RandomGraph(9, 400, 2, 12000)
	// Non-nullable closure: the traversal reaches the leaf loops instead
	// of timing out in the nullable self-pair prefix; fast paths off so
	// the generic product-graph machinery runs.
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)+"), Object: Variable}
	modes := []struct {
		name string
		opts Options
	}{
		{"batched", Options{Timeout: time.Nanosecond, DisableFastPaths: true}},
		{"unbatched", Options{Timeout: time.Nanosecond, DisableFastPaths: true, DisableBatching: true}},
		{"compiled", Options{Timeout: time.Nanosecond, DisableFastPaths: true, CompileEager: true}},
		{"interpreted", Options{Timeout: time.Nanosecond, DisableFastPaths: true, DisableCompiled: true}},
	}
	e := newEngine(g, ring.WaveletMatrix)
	set := ring.NewShardSet(g, 3, nil, ring.WaveletMatrix)
	sharded := NewShardedEngine(set, func(s pathexpr.Sym) (uint32, bool) {
		return g.PredID(s.Name, s.Inverse)
	})
	for _, m := range modes {
		for _, run := range []struct {
			name string
			eval func() error
		}{
			{"engine/" + m.name, func() error {
				_, err := e.Eval(context.Background(), q, m.opts, func(s, o uint32) bool { return true })
				return err
			}},
			{"sharded/" + m.name, func() error {
				_, err := sharded.Eval(context.Background(), q, m.opts, func(s, o uint32) bool { return true })
				return err
			}},
		} {
			start := time.Now()
			err := run.eval()
			elapsed := time.Since(start)
			if err != ErrTimeout {
				t.Fatalf("%s: err=%v, want ErrTimeout", run.name, err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("%s: 1ns deadline took %v", run.name, elapsed)
			}
		}
	}
}

// The nullable v→v self-pair prefix is O(|V|) before any traversal; an
// already-expired deadline must interrupt it instead of emitting every
// node first (fast paths disabled so the generic prefix loop runs).
func TestTimeoutInterruptsNullablePrefix(t *testing.T) {
	g := enginetest.RandomGraph(9, 3000, 2, 3000)
	e := newEngine(g, ring.WaveletMatrix)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("pa*"), Object: Variable}
	emitted := 0
	_, err := e.Eval(context.Background(), q, Options{Timeout: time.Nanosecond, DisableFastPaths: true},
		func(s, o uint32) bool { emitted++; return true })
	if err != ErrTimeout {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
	if emitted >= g.NumNodes() {
		t.Fatalf("emitted %d self-pairs before the deadline check (|V|=%d)", emitted, g.NumNodes())
	}
}

// Results are pairwise distinct (set semantics).
func TestSetSemantics(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		g := enginetest.RandomGraph(seed, 12, 3, 60)
		e := newEngine(g, ring.WaveletMatrix)
		rng := rand.New(rand.NewSource(seed))
		expr := enginetest.RandomExpr(rng, 3, 3)
		seen := map[enginetest.Pair]bool{}
		_, err := e.Eval(context.Background(), Query{Subject: Variable, Expr: expr, Object: Variable}, Options{},
			func(s, o uint32) bool {
				p := enginetest.Pair{S: s, O: o}
				if seen[p] {
					t.Fatalf("duplicate pair %v for %s", p, pathexpr.String(expr))
				}
				seen[p] = true
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Unknown constants or predicates yield empty results, not errors.
func TestUnknownEntities(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	got := collect(t, e, Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("teleport+"),
		Object:  mustID(t, g, "SA"),
	}, Options{})
	if len(got) != 0 {
		t.Fatalf("unknown predicate produced %v", got)
	}
	got = collect(t, e, Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("l1"),
		Object:  int64(g.NumNodes()) + 5,
	}, Options{})
	if len(got) != 0 {
		t.Fatalf("out-of-range object produced %v", got)
	}
}

// Theorem 4.1: the traversal work is bounded by the induced product
// subgraph — ProductNodes can never exceed |V|·(m+1), and on a path
// query over a chain graph it must stay linear in the chain length, not
// quadratic.
func TestWorkBoundedByProductSubgraph(t *testing.T) {
	b := triples.NewBuilder()
	const n = 60
	for i := 0; i < n; i++ {
		b.Add(nodeName(i), "p", nodeName(i+1))
	}
	g := b.Build()
	e := newEngine(g, ring.WaveletMatrix)
	tail := mustID(t, g, nodeName(n))
	stats, err := e.Eval(context.Background(), Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("p+"),
		Object:  tail,
	}, Options{}, func(s, o uint32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != n {
		t.Fatalf("chain results=%d, want %d", stats.Results, n)
	}
	// p+ has 1 position → product graph has ≤ 2(n+1) nodes; the chain
	// induces exactly one (node, state) visit per node.
	if stats.ProductNodes > 2*(n+1) {
		t.Fatalf("ProductNodes=%d exceeds product graph bound %d", stats.ProductNodes, 2*(n+1))
	}
	if stats.ProductEdges > 4*n {
		t.Fatalf("ProductEdges=%d not linear in chain length", stats.ProductEdges)
	}
}

func nodeName(i int) string {
	return "v" + string(rune('A'+i%26)) + string(rune('a'+i/26))
}

// The engine must be reusable across queries (working arrays reset).
func TestEngineReuse(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	for i := 0; i < 10; i++ {
		checkAgainstOracle(t, g, e, Variable, "(l1|l2|l5)+", Variable, Options{})
		checkAgainstOracle(t, g, e, mustID(t, g, "Baq"), "l5+/bus", Variable, Options{})
	}
}

func TestWorkingSizeBytes(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	if e.WorkingSizeBytes() <= 0 {
		t.Fatal("WorkingSizeBytes must be positive")
	}
	// One ring, no delta: the paper's accounting, B[v] plus D[v] and
	// nothing per node beside them (the L_s leaves are the D[s]).
	w := e.work[0]
	if got, want := e.WorkingSizeBytes(), w.bNode.SizeBytes()+w.dNode.SizeBytes(); got != want {
		t.Fatalf("WorkingSizeBytes=%d at K = 1 with no delta, want bNode + dNode = %d", got, want)
	}
}

func BenchmarkVVQueries(b *testing.B) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g, ring.WaveletMatrix)
	exprs := []pathexpr.Node{
		pathexpr.MustParse("pa*"),
		pathexpr.MustParse("pa/pb*"),
		pathexpr.MustParse("(pa|pb)+"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Subject: Variable, Expr: exprs[i%len(exprs)], Object: Variable}
		e.Eval(context.Background(), q, Options{}, func(s, o uint32) bool { return true })
	}
}

func BenchmarkCVQueries(b *testing.B) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g, ring.WaveletMatrix)
	expr := pathexpr.MustParse("pa/pb*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Subject: Variable, Expr: expr, Object: int64(i % 2000)}
		e.Eval(context.Background(), q, Options{}, func(s, o uint32) bool { return true })
	}
}

// Negated property sets (§6) must agree with the oracle on every
// endpoint combination and across engines.
func TestNegatedPropertySets(t *testing.T) {
	g := enginetest.Metro()
	sa := mustID(t, g, "SA")
	baq := mustID(t, g, "Baq")
	for _, layout := range []ring.Layout{ring.WaveletMatrix, ring.WaveletTree} {
		e := newEngine(g, layout)
		for _, expr := range []string{
			"!bus", "!(l1|l2)", "!^bus", "!(l1|l2|l5|bus)", "!bus+",
			"!(l1|bus)*", "l1/!(l2)", "!(bus|^bus)", "!nothing",
		} {
			for _, ends := range [][2]int64{
				{Variable, Variable}, {sa, Variable}, {Variable, baq}, {sa, baq},
			} {
				checkAgainstOracle(t, g, e, ends[0], expr, ends[1], Options{})
			}
		}
	}
}

// Random graphs with negated sets, against the oracle.
func TestNegatedSetsRandom(t *testing.T) {
	for seed := int64(50); seed < 55; seed++ {
		g := enginetest.RandomGraph(seed, 12, 3, 50)
		e := newEngine(g, ring.WaveletMatrix)
		for _, expr := range []string{
			"!pa", "!pa/pb", "(!pa)+", "!(pa|pb)*", "!^pb", "pa|!pb",
		} {
			checkAgainstOracle(t, g, e, Variable, expr, Variable, Options{})
			checkAgainstOracle(t, g, e, 3, expr, Variable, Options{})
			checkAgainstOracle(t, g, e, Variable, expr, 5, Options{})
		}
	}
}

// Stats must be internally consistent and populated.
func TestStatsPopulated(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	stats, err := e.Eval(context.Background(), Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("(l1|l2|l5)+"),
		Object:  mustID(t, g, "SA"),
	}, Options{}, func(s, o uint32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results == 0 || stats.ProductNodes == 0 || stats.ProductEdges == 0 || stats.WaveletVisits == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.WaveletVisits < stats.ProductEdges {
		t.Fatalf("wavelet visits (%d) below product edges (%d)", stats.WaveletVisits, stats.ProductEdges)
	}
}

// A query against an isolated section of the graph touches work
// proportional to that section only, not the whole graph (the locality
// Theorem 4.1 promises).
func TestLocality(t *testing.T) {
	b := triples.NewBuilder()
	// A tiny island plus a large unrelated component.
	b.Add("i1", "p", "i2")
	b.Add("i2", "p", "i3")
	for i := 0; i < 500; i++ {
		b.Add(nodeName(i), "q", nodeName(i+1))
	}
	g := b.Build()
	e := newEngine(g, ring.WaveletMatrix)
	i3 := mustID(t, g, "i3")
	stats, err := e.Eval(context.Background(), Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("p+"),
		Object:  i3,
	}, Options{}, func(s, o uint32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != 2 {
		t.Fatalf("island p+ results=%d, want 2", stats.Results)
	}
	if stats.ProductNodes > 10 {
		t.Fatalf("ProductNodes=%d — traversal leaked into the big component", stats.ProductNodes)
	}
}

// Fig. 6 traces the BFS evaluation of ^bus/l5+ from Baq, reporting SA
// and UCh and nothing else; each exactly once. (In our reconstruction of
// the bus edges both are discovered at BFS depth two, so no relative
// order is asserted.)
func TestPaperFig6BFSOrder(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g, ring.WaveletMatrix)
	var order []string
	_, err := e.Eval(context.Background(), Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("^bus/l5+"),
		Object:  mustID(t, g, "Baq"),
	}, Options{}, func(s, o uint32) bool {
		order = append(order, g.Nodes.Name(s))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("reported %v, want exactly SA and UCh once each", order)
	}
	set := map[string]bool{order[0]: true, order[1]: true}
	if !set["SA"] || !set["UCh"] {
		t.Fatalf("reported %v, want {SA, UCh}", order)
	}
}
