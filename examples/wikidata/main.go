// Wikidata runs a scaled-down version of the paper's §5 benchmark
// through the public API: a synthetic knowledge graph with Wikidata's
// statistical shape, queried with the Table 1 pattern mix (dominated by
// the transitive patterns real users write, like P31/P279* —
// "instance of / subclass of*").
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"ringrpq"
	"ringrpq/internal/datagen"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/workload"
)

func main() {
	// Generate a Wikidata-shaped graph and load it through the public
	// builder (as an external user would from a dump file).
	g := datagen.Generate(datagen.Config{Seed: 11, Nodes: 5000, Edges: 25000, Preds: 40})
	b := ringrpq.NewBuilder()
	for _, t := range g.Triples {
		if t.P < g.NumPreds { // original edges only; Build re-completes
			b.Add(g.Nodes.Name(t.S), g.Preds.Name(t.P), g.Nodes.Name(t.O))
		}
	}
	db, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(db)
	ctx := context.Background()

	// The classic Wikidata query shape: all instances of a class,
	// transitively ("?x P31/P279* C").
	instances, err := db.Query(ctx, "?x", "P1/P2*", datagen.NodeName(0),
		ringrpq.WithLimit(10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst %d bindings of (?x, P1/P2*, %s):\n", len(instances), datagen.NodeName(0))
	for _, s := range instances {
		fmt.Printf("  %s\n", s.Subject)
	}

	// Run a Table 1 pattern mix and report per-pattern timing.
	qs := workload.Generate(g, workload.Config{Seed: 12, Total: 120})
	type agg struct {
		n     int
		total time.Duration
		res   int
	}
	byPattern := map[string]*agg{}
	for _, q := range qs {
		s, o := q.Subject, q.Object
		if s == "" {
			s = "?x"
		}
		if o == "" {
			o = "?y"
		}
		start := time.Now()
		n, err := db.Count(ctx, s, pathexpr.String(q.Expr), o,
			ringrpq.WithTimeout(5*time.Second), ringrpq.WithLimit(100000))
		if err != nil && err != ringrpq.ErrTimeout {
			log.Fatalf("%s: %v", q, err)
		}
		a := byPattern[q.Pattern]
		if a == nil {
			a = &agg{}
			byPattern[q.Pattern] = a
		}
		a.n++
		a.total += time.Since(start)
		a.res += n
	}

	fmt.Printf("\n%-16s %8s %12s %12s\n", "pattern", "queries", "avg time", "results")
	patterns := make([]string, 0, len(byPattern))
	for p := range byPattern {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	for _, p := range patterns {
		a := byPattern[p]
		fmt.Printf("%-16s %8d %12v %12d\n", p, a.n, a.total/time.Duration(a.n), a.res)
	}
}
