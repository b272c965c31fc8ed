package workload_test

import (
	"context"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/query"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

func ringOf(g *triples.Graph) *ring.Ring { return ring.New(g, ring.WaveletMatrix) }

func TestGeneratePatterns(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: 7, Nodes: 200, Edges: 900, Preds: 12})
	qs := workload.GeneratePatterns(g, workload.PatternConfig{Seed: 11, Total: 90})
	if len(qs) != 90 {
		t.Fatalf("generated %d patterns, want 90", len(qs))
	}
	classes := map[string]int{}
	rpq := 0
	for _, pq := range qs {
		q, err := query.Parse(pq.Text)
		if err != nil {
			t.Fatalf("generated pattern does not parse: %q: %v", pq.Text, err)
		}
		classes[pq.Class]++
		hasPathClause := false
		for _, c := range q.Clauses {
			if !c.IsTriple() {
				hasPathClause = true
			}
		}
		if pq.HasRPQ != hasPathClause {
			t.Fatalf("HasRPQ=%v but pattern %q path-clause presence is %v", pq.HasRPQ, pq.Text, hasPathClause)
		}
		if pq.HasRPQ {
			rpq++
		}
	}
	for _, class := range []string{"star", "path", "hybrid"} {
		if classes[class] == 0 {
			t.Fatalf("class %s absent: %v", class, classes)
		}
	}
	if rpq < 30 {
		t.Fatalf("only %d/%d patterns carry an RPQ clause", rpq, len(qs))
	}

	// Determinism: the same seed reproduces the log.
	again := workload.GeneratePatterns(g, workload.PatternConfig{Seed: 11, Total: 90})
	for i := range qs {
		if qs[i] != again[i] {
			t.Fatalf("generation not deterministic at %d: %q vs %q", i, qs[i].Text, again[i].Text)
		}
	}
}

func TestGeneratePatternsSatisfiable(t *testing.T) {
	// On a well-connected graph, a decent share of generated patterns
	// should actually have solutions (anchoring on real edges/walks).
	g := datagen.Generate(datagen.Config{Seed: 3, Nodes: 60, Edges: 400, Preds: 5})
	qs := workload.GeneratePatterns(g, workload.PatternConfig{Seed: 5, Total: 30})
	x := query.NewExec(g, ringOf(g))
	nonEmpty := 0
	for _, pq := range qs {
		n := 0
		err := x.Run(context.Background(), query.MustParse(pq.Text), query.Options{Limit: 1}, func([]uint32) bool {
			n++
			return true
		})
		if err != nil {
			t.Fatalf("%q: %v", pq.Text, err)
		}
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(qs)/3 {
		t.Fatalf("only %d/%d generated patterns are satisfiable", nonEmpty, len(qs))
	}
}
