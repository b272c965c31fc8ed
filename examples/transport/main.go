// Transport reproduces the paper's running example: the Santiago metro
// graph of Fig. 1 and the worked queries of §1 and §4, including the
// (Baq, l5+/bus, y) query whose backward evaluation Figs. 5–7 trace.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ringrpq"
)

func main() {
	b := ringrpq.NewBuilder()
	// Metro lines run both ways; buses are directed. The graph matches
	// Fig. 3's completion (16 edges before adding our own inverses).
	add := func(s, p, o string) { b.Add(s, p, o); b.Add(o, p, s) }
	add("Baquedano", "l1", "UCh")
	add("UCh", "l1", "LosHeroes")
	add("LosHeroes", "l2", "SantaAna")
	add("SantaAna", "l5", "BellasArtes")
	add("BellasArtes", "l5", "Baquedano")
	b.Add("SantaAna", "bus", "UCh")
	b.Add("BellasArtes", "bus", "SantaAna")
	b.Add("BellasArtes", "bus", "UCh")

	db, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(db)
	ctx := context.Background()

	run := func(s, expr, o string) {
		start := time.Now()
		sols, err := db.Query(ctx, s, expr, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n(%s, %s, %s)  —  %d solutions in %v\n", s, expr, o, len(sols), time.Since(start))
		for _, sol := range sols {
			fmt.Printf("  %s .. %s\n", sol.Subject, sol.Object)
		}
	}

	// §1: pairs of stations connected by metro.
	run("?x", "(l1|l2|l5)+", "?y")

	// §1: stations reachable from Baquedano by metro.
	run("Baquedano", "(l1|l2|l5)+", "?y")

	// §4's worked example: take line 5 from Baquedano, then one bus.
	// Figs. 5–7 trace its backward evaluation; the answers are Santa Ana
	// and Universidad de Chile.
	run("Baquedano", "l5+/bus", "?y")

	// The same query with a fixed target is a boolean check.
	run("Baquedano", "l5+/bus", "SantaAna")

	// Two-way expressions: where can a bus from Bellas Artes be caught
	// leaving from, walking edges backwards.
	run("?x", "^bus", "BellasArtes")
}
