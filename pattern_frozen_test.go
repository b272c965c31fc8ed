package ringrpq

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/core"
	"ringrpq/internal/datagen"
	"ringrpq/internal/obs"
	"ringrpq/internal/query"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// bfsJoin answers a pattern with nothing of the executor in it: every
// clause is a 2RPQ handed to the BFS baseline, and the clauses are
// joined by backtracking, each time taking a clause with an endpoint
// already fixed. Rows come back as sorted "var=name;" strings.
func bfsJoin(t *testing.T, g *triples.Graph, q *query.Query) []string {
	t.Helper()
	ix := bfs.New(g)
	row := map[string]uint32{}
	var rows []string
	fixed := func(tm query.Term) (int64, bool) {
		if !tm.IsVar() {
			id, ok := g.Nodes.Lookup(tm.Name)
			if !ok {
				t.Fatalf("no node %s", tm.Name)
			}
			return int64(id), true
		}
		id, ok := row[tm.Var]
		return int64(id), ok
	}
	var rec func(rest []query.Clause)
	rec = func(rest []query.Clause) {
		if len(rest) == 0 {
			vars := make([]string, 0, len(row))
			for v := range row {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			var sb strings.Builder
			for _, v := range vars {
				fmt.Fprintf(&sb, "%s=%s;", v, g.Nodes.Name(row[v]))
			}
			rows = append(rows, sb.String())
			return
		}
		pick := 0
		for i, c := range rest {
			_, sOK := fixed(c.S)
			_, oOK := fixed(c.O)
			if sOK || oOK {
				pick = i
				break
			}
		}
		c := rest[pick]
		rest = append(append([]query.Clause(nil), rest[:pick]...), rest[pick+1:]...)
		s, sOK := fixed(c.S)
		o, oOK := fixed(c.O)
		if !sOK {
			s = -1
		}
		if !oOK {
			o = -1
		}
		err := ix.Eval(s, c.Path, o, bfs.Options{}, func(a, b uint32) bool {
			if !sOK && !oOK && c.S.Var == c.O.Var && a != b {
				return true
			}
			if !sOK {
				row[c.S.Var] = a
			}
			if !oOK {
				row[c.O.Var] = b
			}
			rec(rest)
			if !sOK {
				delete(row, c.S.Var)
			}
			if !oOK {
				delete(row, c.O.Var)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec(q.Clauses)
	sort.Strings(rows)
	return rows
}

// TestFrozenPathologicalPatterns runs six of the thirty patterns the
// benchmark froze out of pattern_select (bench/oplog/excluded.go: cheap
// for a backtracking join, 0.1 s to the 2 s deadline for the executor
// when the list was made) on the benchmark's graph. The rows must be
// the BFS-joined ones and the join's work — counted, not timed — must
// stay with the constant-anchored candidates and the rows instead of
// the 20 000-node universe.
func TestFrozenPathologicalPatterns(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60})
	db := newDB(g, ring.New(g, ring.WaveletMatrix), nil)
	for _, src := range []string{
		"?x0 P45 ?x1 . ?x1 ^P10 ?x2 . ?x2 ^P10 Q5873",
		"?x0 ^P8 ?x1 . ?x1 ^P12 ?x2 . ?x2 ^P59 ?x3 . ?x3 ^P45 Q17424",
		"?x0 ^P18 ?x1 . ?x1 P8 ?x2 . ?x2 ^P12 ?x3 . ?x3 P18 Q17767",
		"?x0 ^P37 ?x1 . ?x1 P45 ?x2 . ?x2 P10 Q3139",
		"?x ^P21 ?y0",
		// No rows, which took the executor the whole deadline to find out.
		"?x0 ^P12 ?x1 . ?x1 P12 ?x2 . ?x2 P1 ?x3 . ?x3 P18 ?x4 . ?x0 ^P12 Q7242 . ?x0 P10 Q1787 . ?x0 P10* ?r",
	} {
		q, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want := bfsJoin(t, g, q)

		plan, err := db.ExplainPattern(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		tr := obs.New()
		var got []string
		err = db.QueryPatternFunc(src, func(b Binding) bool {
			vars := make([]string, 0, len(b))
			for v := range b {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			var sb strings.Builder
			for _, v := range vars {
				fmt.Fprintf(&sb, "%s=%s;", v, b[v])
			}
			got = append(got, sb.String())
			return true
		}, func(o *core.Options) { o.Trace = tr })
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: executor %d rows, BFS join %d rows", src, len(got), len(want))
		}

		var join *obs.Span
		for _, sp := range tr.Spans() {
			if sp.Kind == obs.SpanLTJ {
				sp := sp
				join = &sp
			}
		}
		if join == nil || join.NVals != 3 {
			t.Fatalf("%q: no ltj_join span with rows, seeks and binds: %+v", src, tr.Spans())
		}
		rows, seeks, binds := join.Vals[0], join.Vals[1], join.Vals[2]
		t.Logf("%q: order %v est %v; %d result rows; join rows %d seeks %d binds %d",
			src, plan.Order, plan.Estimates, len(got), rows, seeks, binds)
		// Every pattern also pays for its own constants once.
		if bound := 4*(int64(plan.Estimates[0])+rows) + 8*int64(len(plan.Triples)); seeks+binds > bound || binds > int64(g.NumNodes())/4 {
			t.Errorf("%q: join took %d seeks and %d binds for %v anchored candidates and %d rows (bound %d; %d nodes)",
				src, seeks, binds, plan.Estimates[0], rows, bound, g.NumNodes())
		}
	}
}
