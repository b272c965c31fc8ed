package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

func newEngine(g *triples.Graph) *Engine {
	r := ring.New(g, ring.WaveletMatrix)
	return NewEngine(r, func(s pathexpr.Sym) (uint32, bool) {
		return g.PredID(s.Name, s.Inverse)
	})
}

func idsOf(g *triples.Graph) glushkov.SymbolIDs {
	return func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
}

func evalPairs(t *testing.T, ev Evaluator, q Query, opts Options) []enginetest.Pair {
	t.Helper()
	var out []enginetest.Pair
	_, err := ev.Eval(context.Background(), q, opts, func(s, o uint32) bool {
		out = append(out, enginetest.Pair{S: s, O: o})
		return true
	})
	if err != nil {
		t.Fatalf("Eval(%s): %v", pathexpr.String(q.Expr), err)
	}
	return enginetest.SortPairs(out)
}

func bfsPairs(t *testing.T, ix *bfs.Index, q Query) []enginetest.Pair {
	t.Helper()
	var out []enginetest.Pair
	err := ix.Eval(q.Subject, q.Expr, q.Object, bfs.Options{}, func(s, o uint32) bool {
		out = append(out, enginetest.Pair{S: s, O: o})
		return true
	})
	if err != nil {
		t.Fatalf("bfs.Eval(%s): %v", pathexpr.String(q.Expr), err)
	}
	return enginetest.SortPairs(out)
}

func diffPairs(t *testing.T, label string, got, want []enginetest.Pair, q Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: query (%d, %s, %d): %d pairs, want %d\n got: %v\nwant: %v",
			label, q.Subject, pathexpr.String(q.Expr), q.Object, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: query (%d, %s, %d): pair %d is %v, want %v",
				label, q.Subject, pathexpr.String(q.Expr), q.Object, i, got[i], want[i])
		}
	}
}

// queriesFor derives the four endpoint shapes (v→v, c→v, v→c, c→c) for
// one expression, with random — possibly miss-everything — constants.
func queriesFor(rng *rand.Rand, g *triples.Graph, expr pathexpr.Node) []Query {
	nv := int64(g.NumNodes())
	s := rng.Int63n(nv)
	o := rng.Int63n(nv)
	return []Query{
		{Subject: Variable, Expr: expr, Object: Variable},
		{Subject: s, Expr: expr, Object: Variable},
		{Subject: Variable, Expr: expr, Object: o},
		{Subject: s, Expr: expr, Object: o},
	}
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
	// Every case runs two ways — the default compiled stepper and the
	// multiword interpreter forced on — so the compilation tier is
	// differentially checked against the oracle on the whole
	// random-query corpus.
	variants := [...]struct {
		name string
		opts Options
	}{
		{"default", opts},
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

func withInterpreted(opts Options) Options {
	opts.DisableCompiled = true
	return opts
}

// The paper's running example (§4, Figs. 5–6): the backward traversal of
// ^bus/l5+ from Baq reports SA and UCh — the nodes reachable from
// Baquedano "by following line 5 and then taking the bus once".
func TestPaperRunningExample(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g)
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
		t.Fatalf("sources=%v, want {SA, UCh}", names)
	}
}

// The forward form of the same example: (Baq, l5+/bus, y) must bind y to
// exactly SA and UCh.
func TestPaperExampleForwardForm(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g)
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
	e := newEngine(g)
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
	e := newEngine(g)
	for _, expr := range exprs {
		for _, ends := range [][2]int64{
			{Variable, Variable}, {sa, Variable}, {Variable, baq}, {sa, baq}, {baq, baq},
		} {
			checkAgainstOracle(t, g, e, ends[0], expr, ends[1], Options{})
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
		e := newEngine(g)
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

// TestDifferentialRandom is the property-based differential test: on
// random graphs and random path expressions (predicates, inverses, /,
// |, *, +, ?), every traversal mode and stepping tier of the engine,
// the BFS baseline and the sharded-engine constructor the benchmark
// module builds must produce the relational oracle's solution set.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(24)
		np := 1 + rng.Intn(6)
		ne := 1 + rng.Intn(70)
		g := enginetest.RandomGraph(seed, nv, np, ne)
		eng := newEngine(g)
		ix := bfs.New(g)
		sharded := NewShardedEngine(ring.NewShardSet(g, 3, nil, ring.WaveletMatrix), idsOf(g))

		for qi := 0; qi < 6; qi++ {
			expr := enginetest.RandomExpr(rng, np, 1+rng.Intn(3))
			for _, q := range queriesFor(rng, g, expr) {
				want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
				diffPairs(t, "engine vs oracle", evalPairs(t, eng, q, Options{}), want, q)
				diffPairs(t, "engine unbatched vs oracle",
					evalPairs(t, eng, q, Options{DisableBatching: true}), want, q)
				diffPairs(t, "engine interpreted vs oracle",
					evalPairs(t, eng, q, Options{DisableCompiled: true}), want, q)
				diffPairs(t, "bfs vs oracle", bfsPairs(t, ix, q), want, q)
				diffPairs(t, "sharded engine vs oracle", evalPairs(t, sharded, q, Options{}), want, q)
			}
		}
	}
}

// Fast paths must agree with the generic algorithm, and take no
// product-graph step.
func TestFastPathsMatchGeneric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := enginetest.RandomGraph(seed, 15, 3, 60)
		e := newEngine(g)
		for _, expr := range []string{"pa", "^pb", "pa/pb", "pa/^pa", "pa/^pb", "pa|pb", "pa|pb|pc", "^pa|pb"} {
			node := pathexpr.MustParse(expr)
			q := Query{Subject: Variable, Expr: node, Object: Variable}
			fast := enginetest.SortPairs(collect(t, e, q, Options{}))
			slow := enginetest.SortPairs(collect(t, e, q, Options{DisableFastPaths: true}))
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("seed %d %s: fast=%v generic=%v", seed, expr, fast, slow)
			}
			st, err := e.Eval(context.Background(), q, Options{}, func(s, o uint32) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if st.ProductNodes != 0 {
				t.Fatalf("seed %d %s: fast path reached %d product nodes, want 0", seed, expr, st.ProductNodes)
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
	e := newEngine(g)
	s := int64(2)
	checkAgainstOracle(t, g, e, s, expr, Variable, Options{})
	checkAgainstOracle(t, g, e, Variable, expr, int64(1), Options{})
	checkAgainstOracle(t, g, e, Variable, expr, Variable, Options{})

	// Four predicates: (pa|pb|pc|pd)? seventeen times, 68 positions.
	g = enginetest.RandomGraph(17, 8, 4, 60)
	e = newEngine(g)
	alt := pathexpr.MustParse("(pa|pb|pc|pd)?")
	var wide pathexpr.Node = alt
	for i := 0; i < 16; i++ {
		wide = pathexpr.Concat{L: wide, R: alt}
	}
	if m := pathexpr.CountSyms(wide); m <= glushkov.MaxEngineStates {
		t.Fatalf("expression has %d positions, want > %d", m, glushkov.MaxEngineStates)
	}
	rng := rand.New(rand.NewSource(19))
	for _, q := range queriesFor(rng, g, wide) {
		want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
		diffPairs(t, "wide alternation", evalPairs(t, e, q, Options{}), want, q)
	}
}

// An expression of 17–63 positions splits its compiled reverse table
// into 8-bit chunks, so every StepBack walks more than one: (pa|pb)/…
// nine times has 19 states, three chunks. It must agree with the oracle
// in every endpoint mode, with and without the §5 fast paths.
func TestChunkedReverseTable(t *testing.T) {
	g := enginetest.RandomGraph(3, 10, 2, 40)
	expr := strings.TrimSuffix(strings.Repeat("(pa|pb)/", 9), "/")
	node := pathexpr.MustParse(expr)
	a := glushkov.Build(node, func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) })
	if a.M+1 != 19 {
		t.Fatalf("%s has %d states, want 19", expr, a.M+1)
	}
	s, o := int64(2), int64(1)
	if len(enginetest.Oracle(g, s, node, o)) == 0 {
		t.Fatalf("(%d, %s, %d) is empty: the graph does not exercise the table", s, expr, o)
	}
	e := newEngine(g)
	for _, opts := range []Options{{}, {DisableFastPaths: true}} {
		checkAgainstOracle(t, g, e, Variable, expr, Variable, opts)
		checkAgainstOracle(t, g, e, s, expr, Variable, opts)
		checkAgainstOracle(t, g, e, Variable, expr, o, opts)
		checkAgainstOracle(t, g, e, s, expr, o, opts)
	}
}

func TestLimit(t *testing.T) {
	g := enginetest.RandomGraph(5, 20, 2, 100)
	e := newEngine(g)
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

	// A non-nullable closure: the limit stops the traversal, not the
	// self-pair prefix.
	g = enginetest.RandomGraph(23, 20, 4, 120)
	e = newEngine(g)
	q = Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb|pc)+"), Object: Variable}
	if n := len(evalPairs(t, e, q, Options{})); n < 4 {
		t.Fatalf("%d results: too few for a limit of 3 to bite", n)
	}
	count = 0
	stats, err = e.Eval(context.Background(), q, Options{Limit: 3}, func(s, o uint32) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 || stats.Results != 3 {
		t.Fatalf("limit 3 on %s: emitted %d (stats %d)", pathexpr.String(q.Expr), count, stats.Results)
	}
}

func TestEmitFalseStops(t *testing.T) {
	g := enginetest.RandomGraph(5, 20, 2, 100)
	e := newEngine(g)
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
	e := newEngine(g)
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
		{"interpreted", Options{Timeout: time.Nanosecond, DisableFastPaths: true, DisableCompiled: true}},
	}
	e := newEngine(g)
	for _, m := range modes {
		start := time.Now()
		_, err := e.Eval(context.Background(), q, m.opts, func(s, o uint32) bool { return true })
		elapsed := time.Since(start)
		if err != ErrTimeout {
			t.Fatalf("%s: err=%v, want ErrTimeout", m.name, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("%s: 1ns deadline took %v", m.name, elapsed)
		}
	}
}

// A Timeout ≤ 0 is unset: FoldContext replaces it with the context's
// deadline, so a negative timeout cannot drop that deadline. Without a
// context deadline it bounds nothing.
func TestFoldContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	for _, timeout := range []time.Duration{-time.Second, 0, time.Hour} {
		if got := FoldContext(ctx, Options{Timeout: timeout}).Timeout; got <= 0 || got > 10*time.Millisecond {
			t.Fatalf("Timeout %v under a 10ms deadline folds to %v", timeout, got)
		}
	}
	if got := FoldContext(ctx, Options{Timeout: time.Microsecond}).Timeout; got != time.Microsecond {
		t.Fatalf("Timeout 1µs under a 10ms deadline folds to %v", got)
	}

	g := enginetest.RandomGraph(9, 200, 2, 4000)
	e := newEngine(g)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)+"), Object: Variable}
	opts := Options{Timeout: -time.Second, DisableFastPaths: true}
	if _, err := e.Eval(context.Background(), q, opts, func(s, o uint32) bool { return true }); err != nil {
		t.Fatalf("negative timeout without a deadline: %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := e.Eval(expired, q, opts, func(s, o uint32) bool { return true }); err != ErrTimeout {
		t.Fatalf("negative timeout under an expired deadline: err=%v, want ErrTimeout", err)
	}
}

// The nullable v→v self-pair prefix is O(|V|) before any traversal; an
// already-expired deadline must interrupt it instead of emitting every
// node first (fast paths disabled so the generic prefix loop runs).
func TestTimeoutInterruptsNullablePrefix(t *testing.T) {
	g := enginetest.RandomGraph(9, 3000, 2, 3000)
	e := newEngine(g)
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
		e := newEngine(g)
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
	e := newEngine(g)
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
	for _, q := range []Query{
		{Subject: int64(g.NumNodes()) + 5, Expr: pathexpr.MustParse("l1*"), Object: Variable},
		{Subject: Variable, Expr: pathexpr.MustParse("l1/l2"), Object: int64(g.NumNodes()) + 9},
		{Subject: int64(g.NumNodes()) + 5, Expr: pathexpr.MustParse("l1|l2"), Object: 0},
	} {
		if got := collect(t, e, q, Options{}); len(got) != 0 {
			t.Fatalf("out-of-range endpoint in (%d, %s, %d) produced %v", q.Subject, pathexpr.String(q.Expr), q.Object, got)
		}
	}

	// Expressions whose predicates are partly or wholly absent from the
	// graph: absent symbols match nothing, in every endpoint shape.
	g = enginetest.RandomGraph(3, 10, 3, 30)
	e = newEngine(g)
	rng := rand.New(rand.NewSource(11))
	for _, src := range []string{
		"nosuch", "nosuch*", "pa/nosuch", "pa|nosuch", "(nosuch|pb)+", "nosuch?",
	} {
		for _, q := range queriesFor(rng, g, pathexpr.MustParse(src)) {
			want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
			diffPairs(t, "unknown predicates", evalPairs(t, e, q, Options{}), want, q)
		}
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
	e := newEngine(g)
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
	e := newEngine(g)
	for i := 0; i < 10; i++ {
		checkAgainstOracle(t, g, e, Variable, "(l1|l2|l5)+", Variable, Options{})
		checkAgainstOracle(t, g, e, mustID(t, g, "Baq"), "l5+/bus", Variable, Options{})
	}
}

func TestWorkingSizeBytes(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g)
	if e.WorkingSizeBytes() <= 0 {
		t.Fatal("WorkingSizeBytes must be positive")
	}
	// No delta: the paper's accounting, D[v] and nothing per node beside
	// it (the L_s leaves are the D[s]; B[v] is per expression, in the
	// compile memo).
	if got, want := e.WorkingSizeBytes(), e.dNode.SizeBytes(); got != want {
		t.Fatalf("WorkingSizeBytes=%d with no delta, want dNode = %d", got, want)
	}
}

// tombstones is a Delta holding only tombstones.
type tombstones struct {
	noDelta
	dels []Edge
}

func (d *tombstones) TouchesPred(p uint32) bool { return d.DelsForPred(p) > 0 }
func (d *tombstones) Dels() []Edge              { return d.dels }
func (d *tombstones) Deleted(e Edge) bool       { return slices.Contains(d.dels, e) }
func (d *tombstones) DeletedPS(p, s uint32) int {
	n := 0
	for _, e := range d.dels {
		if e.P == p && e.S == s {
			n++
		}
	}
	return n
}
func (d *tombstones) DelsForPred(p uint32) int {
	n := 0
	for _, e := range d.dels {
		if e.P == p {
			n++
		}
	}
	return n
}

// A query the attached delta cannot affect runs with no delta, and
// must leave the delta's carried tombstone ranks in place: a touched
// query's batched level probes them once, and an untouched one's
// batched level in between must not drop them.
func TestDelegationKeepsTombstoneRanks(t *testing.T) {
	b := triples.NewBuilder()
	for i := 1; i <= 5; i++ {
		m := fmt.Sprintf("m%d", i)
		b.Add(fmt.Sprintf("y%d", i), "pa", m)
		b.Add(fmt.Sprintf("z%d", i), "qc", m)
		b.Add(m, "pb", "h")
	}
	g := b.Build()
	e := newEngine(g)
	y1, m1 := uint32(mustID(t, g, "y1")), uint32(mustID(t, g, "m1"))
	pa, _ := g.PredID("pa", false)
	delta := &tombstones{dels: []Edge{{S: y1, P: pa, O: m1}, {S: m1, P: pa + g.NumPreds, O: y1}}}
	slices.SortFunc(delta.dels, cmpOPS)
	e.SetDelta(delta, g.NumNodes())

	h := mustID(t, g, "h")
	carried := func(when string) {
		t.Helper()
		if len(e.tomb.dels) != 2 || len(e.tomb.keys) != 2 || e.tomb.probes != 2 {
			t.Fatalf("%s: ranks synced to %d tombstones, %d in the ring, %d probes; want both of the delta's, probed once",
				when, len(e.tomb.dels), len(e.tomb.keys), e.tomb.probes)
		}
	}
	if got := collect(t, e, Query{Subject: Variable, Expr: pathexpr.MustParse("pa/pb"), Object: h}, Options{}); len(got) != 4 {
		t.Fatalf("pa/pb into h with y1's edge tombstoned: %v, want 4 pairs", got)
	}
	carried("after the touched query")
	if got := collect(t, e, Query{Subject: Variable, Expr: pathexpr.MustParse("qc/pb"), Object: h}, Options{}); len(got) != 5 {
		t.Fatalf("qc/pb into h: %v, want 5 pairs", got)
	}
	carried("after the delegated query")
}

// Each tombstone's leaf rank is probed once, when it first appears:
// fifty versions that each add one tombstone to the last cost fifty
// probes, not 1+2+…+50, and every version's carried ranks and sorted
// keys equal fresh probes of it. Removing tombstones again probes
// nothing.
func TestTombstoneRanksCarryAcrossVersions(t *testing.T) {
	g := enginetest.RandomGraph(7, 200, 4, 2000)
	e := newEngine(g)
	var all []Edge
	for i, tr := range g.Triples {
		if i%37 == 0 {
			all = append(all, Edge(tr))
		}
	}
	all = append(all, Edge{S: 1, P: 0, O: uint32(g.NumNodes())}) // not in the ring
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	all = all[:50]

	check := func(v int, dels []Edge) {
		t.Helper()
		e.SetDelta(&tombstones{dels: dels}, g.NumNodes())
		got := e.TombstoneRanks()
		var fresh tombRanks
		var keys []uint64
		for i, d := range dels {
			want := fresh.probe(e.r, d)
			if got[i] != want {
				t.Fatalf("version %d, tombstone %v: carried rank %d, fresh %d", v, d, got[i], want)
			}
			if want >= 0 {
				keys = append(keys, tombKey(d.S, want))
			}
		}
		slices.Sort(keys)
		if !slices.Equal(e.tomb.keys, keys) {
			t.Fatalf("version %d: keys %v, want %v", v, e.tomb.keys, keys)
		}
	}
	for v := 1; v <= len(all); v++ {
		dels := slices.Clone(all[:v])
		slices.SortFunc(dels, cmpOPS)
		check(v, dels)
	}
	if e.tomb.probes != len(all) {
		t.Fatalf("%d versions of one new tombstone each cost %d probes, want %d", len(all), e.tomb.probes, len(all))
	}
	for v := len(all) - 1; v >= 1; v -= 7 {
		dels := slices.Clone(all[:v])
		slices.SortFunc(dels, cmpOPS)
		check(v, dels)
	}
	if e.tomb.probes != len(all) {
		t.Fatalf("removing tombstones probed %d more", e.tomb.probes-len(all))
	}
}

func BenchmarkVVQueries(b *testing.B) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g)
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
	e := newEngine(g)
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
	e := newEngine(g)
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

// Random graphs with negated sets, against the oracle.
func TestNegatedSetsRandom(t *testing.T) {
	for seed := int64(50); seed < 55; seed++ {
		g := enginetest.RandomGraph(seed, 12, 3, 50)
		e := newEngine(g)
		for _, expr := range []string{
			"!pa", "!pa/pb", "(!pa)+", "!(pa|pb)*", "!^pb", "pa|!pb",
			"!(pa|^pb)*", "pa/!pb",
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
	e := newEngine(g)
	stats, err := e.Eval(context.Background(), Query{
		Subject: Variable,
		Expr:    pathexpr.MustParse("(l1|l2|l5)+"),
		Object:  mustID(t, g, "SA"),
	}, Options{}, func(s, o uint32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results == 0 || stats.ProductNodes == 0 || stats.ProductEdges == 0 || stats.WaveletVisits == 0 || stats.SubjectVisits == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.WaveletVisits < stats.ProductEdges {
		t.Fatalf("wavelet visits (%d) below product edges (%d)", stats.WaveletVisits, stats.ProductEdges)
	}
	// Part 1's L_p descents are counted in WaveletVisits only.
	if stats.SubjectVisits >= stats.WaveletVisits {
		t.Fatalf("subject visits (%d) not below all wavelet visits (%d)", stats.SubjectVisits, stats.WaveletVisits)
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
	e := newEngine(g)
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
	e := newEngine(g)
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
