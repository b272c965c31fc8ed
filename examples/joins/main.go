// Joins demonstrates the §6 integration the paper sketches: the same
// ring data structure answers both worst-case-optimal multijoins
// (Leapfrog Triejoin, the ring's original purpose) and regular path
// queries, so basic graph patterns and RPQs mix over one index with no
// extra space — now through the public graph-pattern API.
//
// The query answered here, over a small organisational graph:
//
//	SELECT ?mgr ?proj WHERE {
//	  ?mgr  manages+  ?eng .      # RPQ clause: any management chain
//	  ?eng  assigned  ?proj .     # triple pattern: engineer's project
//	  ?proj status    active      # triple pattern: only active projects
//	}
//
// The planner orders the triple patterns by selectivity for the
// leapfrog join and pipelines the manages+ clause as bound-endpoint
// RPQ evaluation; bindings flow into the path clause's endpoints and
// its results feed back as join streams.
package main

import (
	"fmt"
	"log"

	"ringrpq"
)

func main() {
	b := ringrpq.NewBuilder()
	b.Add("ana", "manages", "bo")
	b.Add("bo", "manages", "cleo")
	b.Add("bo", "manages", "dmitri")
	b.Add("ana", "manages", "erin")
	b.Add("cleo", "assigned", "apollo")
	b.Add("dmitri", "assigned", "zephyr")
	b.Add("erin", "assigned", "apollo")
	b.Add("apollo", "status", "active")
	b.Add("zephyr", "status", "archived")
	db, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// A mixed BGP+RPQ pattern with projection.
	vars, rows, err := db.Select(`
		SELECT ?mgr ?proj WHERE {
			?mgr manages+ ?eng .
			?eng assigned ?proj .
			?proj status active
		}`)
	if err != nil {
		log.Fatal(err)
	}
	ringrpq.SortRows(rows)
	fmt.Printf("managers with reports on active projects (%v):\n", vars)
	for _, row := range rows {
		fmt.Printf("  %-8s -> %s\n", row[0], row[1])
	}

	// Full bindings, no projection: every variable of the pattern.
	fmt.Println("\nengineer / project / state rows (pure triple-pattern join):")
	bindings, err := db.QueryPattern("?eng assigned ?proj . ?proj status ?state")
	if err != nil {
		log.Fatal(err)
	}
	for _, bd := range bindings {
		fmt.Printf("  %-8s %-8s %s\n", bd["eng"], bd["proj"], bd["state"])
	}

	// The planner's decisions are inspectable: the leapfrog variable
	// order with its candidate estimates, how each triple pattern is
	// stored and walked, and how many path clauses were scheduled.
	plan, err := db.ExplainPattern(
		"?mgr manages+ ?eng . ?eng assigned ?proj . ?proj status active")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan: leapfrog order %v (estimates %v), %d pipelined RPQ step(s)\n",
		plan.Order, plan.Estimates, plan.PathSteps)
	for _, t := range plan.Triples {
		fmt.Printf("  %-24s inverted=%-5v rotation %s\n", t.Pattern, t.Inverted, t.Rotation)
	}
}
