package core

import (
	"context"
	"math/rand"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
)

// The frontier-batched traversal must produce exactly the result set of
// the item-at-a-time descent on random graphs and expressions, for every
// endpoint shape, on both wavelet layouts, with and without fast paths.
func TestBatchingMatchesUnbatched(t *testing.T) {
	for seed := int64(100); seed < 116; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(24)
		np := 1 + rng.Intn(5)
		ne := 1 + rng.Intn(80)
		g := enginetest.RandomGraph(seed, nv, np, ne)
		for _, layout := range []ring.Layout{ring.WaveletMatrix, ring.WaveletTree} {
			e := newEngine(g, layout)
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
}

// Negated property sets drive the per-node symbol-range filters of the
// batched part-1 descent; they must agree with the unbatched path.
func TestBatchingNegSets(t *testing.T) {
	g := enginetest.RandomGraph(7, 14, 4, 70)
	e := newEngine(g, ring.WaveletMatrix)
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
// one (the result prefix differs in order but not in validity).
func TestBatchingLimit(t *testing.T) {
	g := enginetest.RandomGraph(11, 20, 3, 120)
	e := newEngine(g, ring.WaveletMatrix)
	q := Query{Subject: Variable, Expr: pathexpr.MustParse("(pa|pb)+"), Object: Variable}
	full := evalPairs(t, e, q, Options{DisableFastPaths: true})
	if len(full) < 5 {
		t.Skipf("graph too sparse (%d results)", len(full))
	}
	n := 0
	st, err := e.Eval(context.Background(), q, Options{DisableFastPaths: true, Limit: 4}, func(s, o uint32) bool {
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
	e := newEngine(g, ring.WaveletMatrix)
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
	e := newEngine(g, ring.WaveletMatrix)
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

// The stepper table generator must be allocation-free in steady state:
// once an expression is hot, the Glushkov automaton, the specialized
// stepper, and the per-(expr, ring) B[v] array are all memoised on the
// engine, and the memo lookup itself renders the canonical key into a
// reused buffer. allocs/op must be exactly zero — a regression here
// means every evaluation of a hot expression pays generator costs
// again. `make ci` asserts this via -benchtime with ReportAllocs.
func BenchmarkCompiledStepperSteadyState(b *testing.B) {
	g := enginetest.RandomGraph(42, 2000, 8, 8000)
	e := newEngine(g, ring.WaveletMatrix)
	e.eager = true
	exprs := []pathexpr.Node{
		pathexpr.MustParse("(pa|pb)+"),
		pathexpr.MustParse("pa/pb*"),
		pathexpr.MustParse("pa|pb|pc"),
	}
	for _, x := range exprs { // cold builds outside the timed loop
		if ca := e.compile(x); ca.st == nil || ca.bArrs == nil {
			b.Fatal("warm-up did not compile a stepper")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := e.compile(exprs[i%len(exprs)])
		if ca.st == nil || ca.bArrs == nil {
			b.Fatal("memo lost the compiled stepper")
		}
	}
}
