package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/triples"
)

// The frontier-batched traversal must produce exactly the result set of
// the item-at-a-time descent on random graphs and expressions, for every
// endpoint shape, with and without fast paths.
func TestBatchingMatchesUnbatched(t *testing.T) {
	for seed := int64(100); seed < 116; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(24)
		np := 1 + rng.Intn(5)
		ne := 1 + rng.Intn(80)
		g := enginetest.RandomGraph(seed, nv, np, ne)
		e := newEngine(g)
		for trial := 0; trial < 5; trial++ {
			expr := enginetest.RandomExpr(rng, np, 1+rng.Intn(3))
			for _, q := range queriesFor(rng, g, expr) {
				want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
				batched := evalPairs(t, e, q, Options{DisableFastPaths: true})
				unbatched := evalPairs(t, e, q, Options{DisableFastPaths: true, DisableBatching: true})
				diffPairs(t, "batched vs oracle", batched, want, q)
				diffPairs(t, "unbatched vs oracle", unbatched, want, q)
			}
		}
	}
}

// Negated property sets drive the per-node symbol-range filters of the
// batched part-1 descent; they must agree with the unbatched path.
func TestBatchingNegSets(t *testing.T) {
	g := enginetest.RandomGraph(7, 14, 4, 70)
	e := newEngine(g)
	rng := rand.New(rand.NewSource(7))
	for _, src := range []string{
		"!pa", "!(pa|pb)", "!^pc", "(!pa)+", "!(pa|^pb)*", "pa/!pb", "!pa|!pb",
	} {
		expr := pathexpr.MustParse(src)
		for _, q := range queriesFor(rng, g, expr) {
			want := evalPairs(t, e, q, Options{DisableBatching: true})
			got := evalPairs(t, e, q, Options{})
			diffPairs(t, "negset-batched", got, want, q)
		}
	}
}

// Limits must truncate the batched traversal exactly as the unbatched
// one (the result prefix differs in order but not in validity): distinct
// pairs of the full answer.
func TestBatchingLimit(t *testing.T) {
	g := enginetest.RandomGraph(11, 20, 3, 120)
	e := newEngine(g)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)+"), Object: Variable}
	full := evalPairs(t, e, q, Options{DisableFastPaths: true})
	if len(full) < 5 {
		t.Skipf("graph too sparse (%d results)", len(full))
	}
	valid := map[enginetest.Pair]bool{}
	for _, p := range full {
		valid[p] = true
	}
	n := 0
	st, err := e.Eval(context.Background(), q, Options{DisableFastPaths: true, Limit: 4}, func(s, o uint32) bool {
		p := enginetest.Pair{S: s, O: o}
		if !valid[p] {
			t.Fatalf("limited eval emitted %v: a duplicate or not in the full answer", p)
		}
		delete(valid, p)
		n++
		return true
	})
	if err != nil {
		t.Fatalf("limited eval: %v", err)
	}
	if n != 4 || st.Results != 4 {
		t.Fatalf("limit 4 delivered %d results (stats %d)", n, st.Results)
	}
}

// The Theorem 4.1 locality guarantee must survive batching: the chain
// query's work stays linear, and the batched traversal must touch no
// more wavelet nodes than the per-item descent.
func TestBatchingWaveletVisitsNotWorse(t *testing.T) {
	g := enginetest.RandomGraph(21, 400, 4, 3000)
	e := newEngine(g)
	for _, src := range []string{"(pa|pb)+", "pa*", "(pa/pb)+"} {
		q := Query{Subject: Variable, Expr: pathexpr.MustParse(src), Object: Variable}
		bst, err := e.Eval(context.Background(), q, Options{DisableFastPaths: true}, func(s, o uint32) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		ust, err := e.Eval(context.Background(), q, Options{DisableFastPaths: true, DisableBatching: true}, func(s, o uint32) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if bst.Results != ust.Results {
			t.Fatalf("%s: batched %d results, unbatched %d", src, bst.Results, ust.Results)
		}
		if bst.WaveletVisits > ust.WaveletVisits {
			t.Fatalf("%s: batched WaveletVisits=%d exceeds unbatched %d",
				src, bst.WaveletVisits, ust.WaveletVisits)
		}
	}
}

// limitedStats evaluates q with and without a limit and returns both
// Stats; the limited run must deliver exactly limit results.
func limitedStats(t *testing.T, e *Engine, q Query, limit int) (full, limited Stats) {
	t.Helper()
	eval := func(limit int) Stats {
		st, err := e.Eval(context.Background(), q, Options{Limit: limit}, func(s, o uint32) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full, limited = eval(0), eval(limit)
	if limited.Results != limit || full.Results <= limit {
		t.Fatalf("%s: %d results at limit %d, %d without", pathexpr.String(q.Expr), limited.Results, limit, full.Results)
	}
	return full, limited
}

// A limit bounds the work, not only the answer: (?x, p*, hub) over 3000
// p in-edges at Limit 10 reads a small fraction of the wavelet nodes
// the unlimited query reads. The in-edges enter the hub directly (the
// first level expands item at a time) or through eight middle nodes
// (the second level is batched).
func TestLimitBoundsWaveletVisits(t *testing.T) {
	for _, mids := range []int{0, 8} {
		b := triples.NewBuilder()
		for i := 0; i < 3000; i++ {
			to := "hub"
			if mids > 0 {
				to = fmt.Sprintf("m%d", i%mids)
			}
			b.Add(fmt.Sprintf("x%d", i), "p", to)
		}
		for m := 0; m < mids; m++ {
			b.Add(fmt.Sprintf("m%d", m), "p", "hub")
		}
		g := b.Build()
		e := newEngine(g)
		hub := mustID(t, g, "hub")
		full, limited := limitedStats(t, e, Query{Subject: Variable, Expr: pathexpr.MustParse("p*"), Object: hub}, 10)
		if limited.WaveletVisits*20 > full.WaveletVisits {
			t.Fatalf("%d middle nodes: %d wavelet visits at Limit 10, over a twentieth of the unlimited %d",
				mids, limited.WaveletVisits, full.WaveletVisits)
		}
	}
}

// A limit bounds a hub's in-range that cannot report: for (?x, a/b*,
// hub) over 3000 b in-edges, each from a node with one a in-edge, the
// first level's b range lacks the initial state, so a limited query
// descends it in installments instead of marking every predecessor
// before any of them is asked for its result. At Limit 10 the query
// reaches under a twentieth of the unlimited query's product nodes.
func TestLimitBoundsHubInRange(t *testing.T) {
	b := triples.NewBuilder()
	for i := 0; i < 3000; i++ {
		b.Add(fmt.Sprintf("x%d", i), "b", "hub")
		b.Add(fmt.Sprintf("y%d", i), "a", fmt.Sprintf("x%d", i))
	}
	g := b.Build()
	e := newEngine(g)
	full, limited := limitedStats(t, e, Query{Subject: Variable, Expr: pathexpr.MustParse("a/b*"), Object: mustID(t, g, "hub")}, 10)
	if limited.ProductNodes*20 > full.ProductNodes {
		t.Fatalf("%d product nodes at Limit 10, over a twentieth of the unlimited %d", limited.ProductNodes, full.ProductNodes)
	}
}

// A v→v limit bounds phase 1 too: for (?x, a/b*, ?y) over one a edge
// into the root of a 4095-node binary tree of b edges, phase 1 would
// otherwise visit the whole tree before phase 2 emits one pair. At
// Limit 5 the query activates under a fiftieth of the unlimited
// query's product nodes.
func TestLimitBoundsPhaseOne(t *testing.T) {
	b := triples.NewBuilder()
	b.Add("s", "a", "t1")
	for i := 1; i < 2048; i++ {
		b.Add(fmt.Sprintf("t%d", i), "b", fmt.Sprintf("t%d", 2*i))
		b.Add(fmt.Sprintf("t%d", i), "b", fmt.Sprintf("t%d", 2*i+1))
	}
	g := b.Build()
	e := newEngine(g)
	full, limited := limitedStats(t, e, Query{Subject: Variable, Expr: pathexpr.MustParse("a/b*"), Object: Variable}, 5)
	if limited.ProductNodes*50 > full.ProductNodes {
		t.Fatalf("%d product nodes at Limit 5, over a fiftieth of the unlimited %d", limited.ProductNodes, full.ProductNodes)
	}
}

// pairSet must behave as a set within one epoch and forget everything
// across resets, including after enough resets to recycle pages.
func TestPairSetReuse(t *testing.T) {
	var ps pairSet
	for epoch := 0; epoch < 300; epoch++ {
		if !ps.add(1, 2) {
			t.Fatalf("epoch %d: first add(1,2) reported duplicate", epoch)
		}
		if ps.add(1, 2) {
			t.Fatalf("epoch %d: second add(1,2) reported new", epoch)
		}
		// Pairs far apart land on distinct pages; page-cache churn must
		// not lose membership.
		for i := uint32(0); i < 50; i++ {
			s, o := i*7919, i*104729
			if !ps.add(s, o) {
				t.Fatalf("epoch %d: add(%d,%d) reported duplicate", epoch, s, o)
			}
			if ps.add(s, o) {
				t.Fatalf("epoch %d: re-add(%d,%d) reported new", epoch, s, o)
			}
		}
		ps.reset()
	}
}

func TestPairSetAdjacentBits(t *testing.T) {
	var ps pairSet
	// Exhaust one page's bit positions: all distinct, all remembered.
	for o := uint32(0); o < 1<<pairPageBits; o++ {
		if !ps.add(9, o) {
			t.Fatalf("add(9,%d) reported duplicate", o)
		}
	}
	for o := uint32(0); o < 1<<pairPageBits; o++ {
		if ps.add(9, o) {
			t.Fatalf("re-add(9,%d) reported new", o)
		}
	}
}

// BenchmarkBatchedBFS compares the frontier-batched and item-at-a-time
// traversals on closure queries over a Wikidata-shaped graph (the
// skewed-degree workload the batching targets; uniform-random graphs
// produce scattered frontiers that mostly measure the per-item
// descent). `make ci` runs it in short mode as a smoke test.
func BenchmarkBatchedBFS(b *testing.B) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 6000, Edges: 30000, Preds: 40})
	e := newEngine(g)
	queries := []Query{
		{Subject: Variable, Expr: pathexpr.MustParse("P1*"), Object: 7},
		{Subject: Variable, Expr: pathexpr.MustParse("(P2|P5)+"), Object: 11},
		{Subject: 3, Expr: pathexpr.MustParse("P1/P2*"), Object: Variable},
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"batched", Options{DisableFastPaths: true}},
		{"unbatched", Options{DisableFastPaths: true, DisableBatching: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					e.Eval(context.Background(), q, mode.opts, func(s, o uint32) bool { return true })
				}
			}
		})
	}
}

// BenchmarkLimitedBFS runs the two shapes of rpq_static's limit-bound
// requests at Limit 1000 on a Wikidata-shaped graph: a star closure of
// the most frequent predicate onto its busiest object, and a
// non-nullable v→v closure of it behind a second predicate. `make ci`
// runs it in short mode, so that the limit path keeps compiling and
// running.
func BenchmarkLimitedBFS(b *testing.B) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 40})
	uses := make([]int, g.NumCompletedPreds())
	for _, t := range g.Triples {
		uses[t.P]++
	}
	preds := make([]uint32, g.NumPreds) // base predicates, most used first
	for p := range preds {
		preds[p] = uint32(p)
	}
	slices.SortFunc(preds, func(a, b uint32) int { return uses[b] - uses[a] })
	hub, into := uint32(0), map[uint32]int{}
	for _, t := range g.Triples {
		if t.P == preds[0] {
			if into[t.O]++; into[t.O] > into[hub] {
				hub = t.O
			}
		}
	}
	pTop, p2 := g.Preds.Name(preds[0]), g.Preds.Name(preds[1])
	queries := []Query{
		{Subject: Variable, Expr: pathexpr.MustParse(pTop + "*"), Object: int64(hub)},
		{Subject: Variable, Expr: pathexpr.MustParse(p2 + "/" + pTop + "*"), Object: Variable},
	}
	e := newEngine(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := e.Eval(context.Background(), q, Options{Limit: 1000}, func(s, o uint32) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// steadyStateExprs are the expressions the memo-hit allocation guard
// and its benchmark cycle through.
func steadyStateExprs() []pathexpr.Node {
	return []pathexpr.Node{
		pathexpr.MustParse("(pa|pb)+"),
		pathexpr.MustParse("pa/pb*"),
		pathexpr.MustParse("pa|pb|pc"),
	}
}

// warmCompiled compiles every expression once on e, outside any timed
// or counted loop.
func warmCompiled(tb testing.TB, e *Engine, exprs []pathexpr.Node) {
	tb.Helper()
	for _, x := range exprs {
		if ca, err := e.memo.get(x); err != nil || ca.st == nil || ca.bArr == nil {
			tb.Fatal("first evaluation did not compile a stepper")
		}
	}
}

// The stepper table generator must be allocation-free in steady state:
// after an expression's first evaluation, the Glushkov automaton, the
// compiled stepper, and the per-expression B[v] array are all
// memoised on the engine, and the memo lookup itself renders the
// canonical key into a reused buffer. A memo hit must allocate nothing
// — otherwise every evaluation pays generator costs again.
// TestCompiledStepperSteadyStateAllocs asserts it; this benchmark
// reports allocs/op beside the time.
func BenchmarkCompiledStepperSteadyState(b *testing.B) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g)
	exprs := steadyStateExprs()
	warmCompiled(b, e, exprs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca, _ := e.memo.get(exprs[i%len(exprs)])
		if ca.st == nil || ca.bArr == nil {
			b.Fatal("memo lost the compiled stepper")
		}
	}
}

func TestCompiledStepperSteadyStateAllocs(t *testing.T) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g)
	exprs := steadyStateExprs()
	warmCompiled(t, e, exprs)
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		ca, _ := e.memo.get(exprs[i%len(exprs)])
		i++
		if ca.st == nil || ca.bArr == nil {
			t.Fatal("memo lost the compiled stepper")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %v times, want 0", allocs)
	}
}

// One evaluation is enough to compile an expression: there is no
// interpreted warm-up tier.
func TestFirstEvalIsCompiled(t *testing.T) {
	g := enginetest.Metro()
	e := newEngine(g)
	expr := pathexpr.MustParse("l5+/bus")
	q := Query{Subject: Variable, Expr: expr, Object: mustID(t, g, "UCh")}
	collect(t, e, q, Options{})
	c, ok := e.memo.entries[string(e.memo.keyW.Key(expr))]
	if !ok {
		t.Fatal("first evaluation left no memo entry")
	}
	if c.st == nil || c.bArr == nil {
		t.Fatalf("after one evaluation st=%v bArr=%v, want both compiled", c.st, c.bArr)
	}
}

// Overflowing the memo drops it whole; an expression evaluated again
// afterwards is recompiled and still answers as the oracle does.
func TestMemoOverflowRecompiles(t *testing.T) {
	g := enginetest.RandomGraph(11, 40, 8, 300)
	e := newEngine(g)
	preds := []string{"pa", "pb", "pc", "pd", "pe", "pf", "pg", "ph"}
	var exprs []pathexpr.Node
	for _, x := range preds {
		for j, y := range preds {
			for _, z := range preds[j+1:] {
				if len(exprs) <= maxCompiled {
					exprs = append(exprs, pathexpr.MustParse(x+"/("+y+"|"+z+")*"))
				}
			}
		}
	}
	if len(exprs) != maxCompiled+1 {
		t.Fatalf("built %d expressions, want %d", len(exprs), maxCompiled+1)
	}
	check := func(expr pathexpr.Node) {
		t.Helper()
		q := Query{Subject: Variable, Expr: expr, Object: 3}
		want := enginetest.SortPairs(enginetest.Oracle(g, q.Subject, q.Expr, q.Object))
		diffPairs(t, "engine vs oracle", evalPairs(t, e, q, Options{}), want, q)
	}
	for _, x := range exprs {
		check(x)
	}
	firstKey := string(e.memo.keyW.Key(exprs[0]))
	if _, ok := e.memo.entries[firstKey]; ok {
		t.Fatalf("%d distinct expressions did not overflow the memo", len(exprs))
	}
	check(exprs[0])
	if c := e.memo.entries[firstKey]; c == nil || c.st == nil || c.bArr == nil {
		t.Fatal("re-evaluation after the memo drop did not recompile")
	}
}
