// Quickstart: build a small graph, index it with the ring, and run the
// three flavours of regular path query (fixed source, fixed target, both
// variable).
package main

import (
	"context"
	"fmt"
	"log"

	"ringrpq"
)

func main() {
	b := ringrpq.NewBuilder()

	// A tiny social/knowledge graph.
	b.Add("alice", "knows", "bob")
	b.Add("bob", "knows", "carol")
	b.Add("carol", "knows", "dave")
	b.Add("dave", "worksAt", "acme")
	b.Add("carol", "worksAt", "initech")
	b.Add("alice", "manages", "bob")
	b.Add("bob", "manages", "carol")

	db, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(db)
	ctx := context.Background()

	// Everyone transitively known by alice.
	sols, err := db.Query(ctx, "alice", "knows+", "?person")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nalice --knows+--> ?person:")
	for _, s := range sols {
		fmt.Printf("  %s\n", s.Object)
	}

	// Who works at a company somebody alice knows works at? Inverse
	// steps (^worksAt) walk edges backwards.
	sols, err = db.Query(ctx, "alice", "knows+/worksAt/^worksAt", "?colleague")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nalice --knows+/worksAt/^worksAt--> ?colleague:")
	for _, s := range sols {
		fmt.Printf("  %s\n", s.Object)
	}

	// All management chains of any length, as (boss, report) pairs.
	sols, err = db.Query(ctx, "?boss", "manages+", "?report")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n?boss --manages+--> ?report:")
	for _, s := range sols {
		fmt.Printf("  %s -> %s\n", s.Subject, s.Object)
	}

	// A fixed-pair (boolean) query.
	n, err := db.Count(ctx, "alice", "(knows|manages)+", "dave")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalice connected to dave: %v\n", n > 0)
}
