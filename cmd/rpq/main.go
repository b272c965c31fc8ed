// Command rpq loads a triple file and evaluates regular path queries —
// or, with -pattern, multi-clause graph patterns — against it using
// the ring index.
//
// Usage:
//
//	rpq -data graph.nt "Baquedano" "(l1|l2|l5)+" "?station"
//	rpq -data graph.nt -count "?x" "p31/p279*" "?y"
//	rpq -data graph.nt -pattern "SELECT ?x WHERE { ?x advisor+ ?y . ?y country Q30 }"
//	rpq -data graph.nt -update feed.ndjson "?x" "knows+" "?y"
//
// Endpoints starting with '?' are variables. The data file holds one
// "subject predicate object" triple per line ('#' comments, optional
// trailing dots, <IRI> tokens). Pattern mode prints a tab-separated
// table: a header of variable names, then one row per solution.
//
// -update applies a live-update stream before querying: NDJSON with
// one {"op":"add"|"del","s":...,"p":...,"o":...} per line (op defaults
// to add), the same format POST /update accepts in bulk. Queries then
// see ring ∪ adds − dels; -save persists the merged state (flushing
// the overlay into the ring first).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ringrpq"
	"ringrpq/internal/service"
)

func main() {
	var (
		data    = flag.String("data", "", "triple file to load")
		index   = flag.String("index", "", "serialised index to load (instead of -data)")
		save    = flag.String("save", "", "write the built index to this file (rdb1)")
		count   = flag.Bool("count", false, "print only the solution count")
		limit   = flag.Int("limit", 0, "cap the number of solutions (0 = all)")
		timeout = flag.Duration("timeout", 0, "per-query timeout (0 = none)")
		stats   = flag.Bool("stats", false, "print database statistics and exit")
		pattern = flag.Bool("pattern", false, "evaluate the single argument as a graph-pattern query (triple patterns + RPQ clauses)")
		update  = flag.String("update", "", "NDJSON update stream to apply before querying (one {\"op\",\"s\",\"p\",\"o\"} per line)")
	)
	flag.Parse()
	if *data == "" && *index == "" {
		fmt.Fprintln(os.Stderr, "rpq: one of -data or -index is required")
		os.Exit(2)
	}

	ctx := context.Background()
	var db *ringrpq.DB
	start := time.Now()
	if *index != "" {
		f, err := os.Open(*index)
		if err != nil {
			fatal(err)
		}
		db, err = ringrpq.LoadDB(f)
		if err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "loaded %s in %v\n", db, time.Since(start))
	} else {
		f, err := os.Open(*data)
		if err != nil {
			fatal(err)
		}
		b := ringrpq.NewBuilder()
		if err := b.Load(f); err != nil {
			fatal(err)
		}
		f.Close()
		db, err = b.Build()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "indexed %s in %v\n", db, time.Since(start))
	}
	if *update != "" {
		f, err := os.Open(*update)
		if err != nil {
			fatal(err)
		}
		adds, dels, err := service.DecodeNDJSONUpdates(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		conv := func(ts []service.UpdateTriple) []ringrpq.Triple {
			out := make([]ringrpq.Triple, len(ts))
			for i, t := range ts {
				out[i] = ringrpq.Triple{Subject: t.S, Predicate: t.P, Object: t.O}
			}
			return out
		}
		ustart := time.Now()
		st, err := db.Apply(ctx, conv(adds), conv(dels))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "applied %d adds, %d dels in %v (overlay: %d edges, %d tombstones)\n",
			len(adds), len(dels), time.Since(ustart), st.OverlayEdges, st.Tombstones)
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := db.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved index to %s\n", *save)
	}

	if *stats {
		s := db.Stats().Index
		fmt.Printf("nodes=%d edges=%d completed=%d predicates=%d index=%dB (%.2f B/edge)\n",
			s.Nodes, s.Edges, s.CompletedEdges, s.Predicates, s.IndexBytes, float64(s.IndexBytes)/float64(s.CompletedEdges))
		return
	}

	var opts []ringrpq.QueryOption
	if *limit > 0 {
		opts = append(opts, ringrpq.WithLimit(*limit))
	}
	if *timeout > 0 {
		opts = append(opts, ringrpq.WithTimeout(*timeout))
	}

	if *pattern {
		// Accept the query as one argument or as shell-split tokens.
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "rpq: -pattern wants the graph-pattern query as argument")
			os.Exit(2)
		}
		runPattern(ctx, db, strings.Join(flag.Args(), " "), *count, opts)
		return
	}

	if flag.NArg() != 3 {
		fmt.Fprintln(os.Stderr, "rpq: want exactly three arguments: subject expr object")
		os.Exit(2)
	}
	subject, expr, object := flag.Arg(0), flag.Arg(1), flag.Arg(2)

	n := 0
	qstart := time.Now()
	err := db.QueryFunc(ctx, subject, expr, object, func(s ringrpq.Solution) bool {
		n++
		if !*count {
			fmt.Printf("%s\t%s\n", s.Subject, s.Object)
		}
		return true
	}, opts...)
	elapsed := time.Since(qstart)
	if err == ringrpq.ErrTimeout {
		fmt.Fprintf(os.Stderr, "timeout after %v (%d solutions so far)\n", elapsed, n)
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d solutions in %v\n", n, elapsed)
}

// runPattern evaluates a graph-pattern query and prints the projected
// result table (tab-separated, header first).
func runPattern(ctx context.Context, db *ringrpq.DB, src string, countOnly bool, opts []ringrpq.QueryOption) {
	qstart := time.Now()
	vars, rows, err := db.Select(ctx, src, opts...)
	elapsed := time.Since(qstart)
	if err == ringrpq.ErrTimeout {
		fmt.Fprintf(os.Stderr, "timeout after %v (%d rows so far)\n", elapsed, len(rows))
	} else if err != nil {
		fatal(err)
	}
	if !countOnly {
		fmt.Println(strings.Join(vars, "\t"))
		for _, row := range rows {
			fmt.Println(strings.Join(row, "\t"))
		}
	}
	fmt.Fprintf(os.Stderr, "%d rows in %v\n", len(rows), elapsed)
	if err == ringrpq.ErrTimeout {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rpq: %v\n", err)
	os.Exit(1)
}
