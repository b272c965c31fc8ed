package ltj

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"ringrpq/internal/datagen"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// rowMap is one join result: variable name → bound symbol.
type rowMap map[string]uint32

// naiveJoin evaluates the join by brute force over all bindings.
func naiveJoin(g *triples.Graph, patterns []Pattern) []rowMap {
	edgeSet := map[triples.Triple]bool{}
	for _, t := range g.Triples {
		edgeSet[t] = true
	}
	vars := Vars(patterns)
	var out []rowMap
	row := rowMap{}
	var rec func(k int)
	rec = func(k int) {
		if k == len(vars) {
			for _, p := range patterns {
				val := func(t Term) uint32 {
					if t.Var != "" {
						return row[t.Var]
					}
					return t.Const
				}
				if !edgeSet[triples.Triple{S: val(p.S), P: val(p.P), O: val(p.O)}] {
					return
				}
			}
			cp := rowMap{}
			for k, v := range row {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		for v := 0; v < g.NumNodes()+int(g.NumCompletedPreds()); v++ {
			// Variables range over nodes and predicates; out-of-domain
			// bindings simply fail the edge check.
			row[vars[k]] = uint32(v)
			rec(k + 1)
		}
		delete(row, vars[k])
	}
	rec(0)
	return out
}

func sortRows(rows []rowMap, vars []string) []rowMap {
	sort.Slice(rows, func(i, j int) bool {
		for _, v := range vars {
			if rows[i][v] != rows[j][v] {
				return rows[i][v] < rows[j][v]
			}
		}
		return false
	})
	return rows
}

// joinRows evaluates the natural join of the patterns on r under an
// order of its own choosing, calling emit with a fresh map for every
// result row; emit returning false stops the enumeration. It returns
// ErrUnsupportedOrder when no single-ring binding order exists.
func joinRows(r *ring.Ring, patterns []Pattern, emit func(rowMap) bool) error {
	order, err := ChooseOrder(patterns, Estimates(r, patterns), time.Time{})
	if err != nil {
		return err
	}
	_, err = JoinWith(r, patterns, Options{Order: order}, func(vals []uint32) bool {
		row := make(rowMap, len(order))
		for i, v := range order {
			row[v] = vals[i]
		}
		return emit(row)
	})
	return err
}

func runJoin(t *testing.T, r *ring.Ring, patterns []Pattern) []rowMap {
	t.Helper()
	var rows []rowMap
	err := joinRows(r, patterns, func(row rowMap) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSinglePatternModes(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	l1, _ := g.PredID("l1", false)
	baq, _ := g.Nodes.Lookup("Baq")

	// (?x, l1, ?y): all l1 edges.
	rows := runJoin(t, r, []Pattern{{S: V("x"), P: C(l1), O: V("y")}})
	want := 0
	for _, tr := range g.Triples {
		if tr.P == l1 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("l1 edges: %d rows, want %d", len(rows), want)
	}

	// (Baq, ?p, ?y): all edges out of Baq, any predicate.
	rows = runJoin(t, r, []Pattern{{S: C(baq), P: V("p"), O: V("y")}})
	want = 0
	for _, tr := range g.Triples {
		if tr.S == baq {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("edges out of Baq: %d rows, want %d", len(rows), want)
	}

	// Fully constant pattern: present and absent.
	uch, _ := g.Nodes.Lookup("UCh")
	rows = runJoin(t, r, []Pattern{{S: C(baq), P: C(l1), O: C(uch)}})
	if len(rows) != 1 {
		t.Fatalf("existing edge check: %d rows, want 1", len(rows))
	}
	sa, _ := g.Nodes.Lookup("SA")
	rows = runJoin(t, r, []Pattern{{S: C(baq), P: C(l1), O: C(sa)}})
	if len(rows) != 0 {
		t.Fatalf("absent edge check: %d rows, want 0", len(rows))
	}
}

func TestTwoPatternJoin(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	l1, _ := g.PredID("l1", false)
	l2, _ := g.PredID("l2", false)
	// Paths x -l1-> y -l2-> z.
	patterns := []Pattern{
		{S: V("x"), P: C(l1), O: V("y")},
		{S: V("y"), P: C(l2), O: V("z")},
	}
	got := sortRows(runJoin(t, r, patterns), []string{"x", "y", "z"})
	want := sortRows(naiveJoin(g, patterns), []string{"x", "y", "z"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join: got %v, want %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("expected nonempty join (UCh -l1-> LH -l2-> SA exists)")
	}
}

func TestTriangleJoin(t *testing.T) {
	// A graph with a known triangle, joined on three patterns.
	b := triples.NewBuilder()
	b.Add("a", "p", "b")
	b.Add("b", "p", "c")
	b.Add("c", "p", "a")
	b.Add("a", "p", "d") // dead end
	g := b.Build()
	r := ring.New(g, ring.WaveletMatrix)
	p, _ := g.PredID("p", false)
	patterns := []Pattern{
		{S: V("x"), P: C(p), O: V("y")},
		{S: V("y"), P: C(p), O: V("z")},
		{S: V("z"), P: C(p), O: V("x")},
	}
	got := sortRows(runJoin(t, r, patterns), []string{"x", "y", "z"})
	want := sortRows(naiveJoin(g, patterns), []string{"x", "y", "z"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("triangle: got %v, want %v", got, want)
	}
	if len(got) != 3 {
		t.Fatalf("triangle count=%d, want 3 rotations", len(got))
	}
}

func TestVariablePredicateJoin(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	sa, _ := g.Nodes.Lookup("SA")
	// Two edges sharing an unknown predicate: (SA, ?p, ?x), (?x, ?p, ?y).
	patterns := []Pattern{
		{S: C(sa), P: V("p"), O: V("x")},
		{S: V("x"), P: V("p"), O: V("y")},
	}
	got := sortRows(runJoin(t, r, patterns), []string{"p", "x", "y"})
	want := sortRows(naiveJoin(g, patterns), []string{"p", "x", "y"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("var-pred join: got %v, want %v", got, want)
	}
}

func TestRepeatedVariable(t *testing.T) {
	b := triples.NewBuilder()
	b.Add("a", "p", "a") // self loop
	b.Add("a", "p", "b")
	b.Add("b", "p", "c")
	g := b.Build()
	r := ring.New(g, ring.WaveletMatrix)
	p, _ := g.PredID("p", false)
	rows := runJoin(t, r, []Pattern{{S: V("x"), P: C(p), O: V("x")}})
	if len(rows) != 1 {
		t.Fatalf("self loops: %d rows, want 1", len(rows))
	}
	a, _ := g.Nodes.Lookup("a")
	if rows[0]["x"] != a {
		t.Fatalf("self loop on %d, want %d", rows[0]["x"], a)
	}
}

func TestRandomJoinsAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := enginetest.RandomGraph(seed+400, 8, 2, 25)
		r := ring.New(g, ring.WaveletMatrix)
		p0, _ := g.PredID("pa", false)
		p1, _ := g.PredID("pb", false)
		cases := [][]Pattern{
			{{S: V("x"), P: C(p0), O: V("y")}, {S: V("y"), P: C(p1), O: V("z")}},
			{{S: V("x"), P: C(p0), O: V("y")}, {S: V("x"), P: C(p1), O: V("z")}},
			{{S: V("x"), P: V("p"), O: V("y")}},
			{{S: V("x"), P: C(p0), O: V("y")}, {S: V("y"), P: C(p0), O: V("x")}},
		}
		for ci, patterns := range cases {
			vars := Vars(patterns)
			got := sortRows(runJoin(t, r, patterns), vars)
			want := sortRows(naiveJoin(g, patterns), vars)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d case %d: got %d rows, want %d\n%v\n%v",
					seed, ci, len(got), len(want), got, want)
			}
		}
	}
}

func TestEarlyStop(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	count := 0
	err := joinRows(r, []Pattern{{S: V("x"), P: V("p"), O: V("y")}}, func(rowMap) bool {
		count++
		return count < 3
	})
	if err != nil || count != 3 {
		t.Fatalf("early stop: count=%d err=%v", count, err)
	}
	// An emit that stops after k rows inside an enumerating last level
	// ends the descent there, for every k.
	for _, c := range enumeratingJoins(t, g, r) {
		for k := 1; k <= c.rows; k++ {
			n := 0
			st, err := JoinWith(r, c.patterns, Options{Order: c.order}, func([]uint32) bool {
				n++
				return n < k
			})
			if err != nil || n != k || st.Rows != int64(k) {
				t.Fatalf("%s: emit stop after %d: %d rows, stats %+v, err %v", c.name, k, n, st, err)
			}
		}
	}
}

// enumeratingJoin is a join, under a fixed order, whose last level
// enumerates its one constrained part, with its full row count.
type enumeratingJoin struct {
	name     string
	patterns []Pattern
	order    []string
	rows     int
}

// enumeratingJoins returns two such joins on the metro graph: the
// all-variable pattern, whose second and third levels each narrow one
// pattern's range, and an l1 edge followed by any edge, whose last
// variable only the second pattern mentions.
func enumeratingJoins(t *testing.T, g *triples.Graph, r *ring.Ring) []enumeratingJoin {
	t.Helper()
	l1, _ := g.PredID("l1", false)
	var out []enumeratingJoin
	for _, c := range []struct {
		name     string
		patterns []Pattern
	}{
		{"all-variable", []Pattern{{S: V("x"), P: V("p"), O: V("y")}}},
		{"chain", []Pattern{{S: V("x"), P: C(l1), O: V("y")}, {S: V("y"), P: V("p"), O: V("z")}}},
	} {
		order := chosenOrder(t, r, c.patterns)
		rots, _ := rotations(c.patterns, order)
		j := newJoiner(r, c.patterns, order, rots)
		if last := j.levels[len(j.levels)-1]; last.enum < 0 {
			t.Fatalf("%s under %v: last level does not enumerate", c.name, order)
		}
		st, err := JoinWith(r, c.patterns, Options{Order: order}, func([]uint32) bool { return true })
		if err != nil || st.Rows < 2 {
			t.Fatalf("%s: %+v, %v; the case needs rows to cut", c.name, st, err)
		}
		out = append(out, enumeratingJoin{c.name, c.patterns, order, int(st.Rows)})
	}
	return out
}

func TestEmptyPatterns(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	if err := joinRows(r, nil, func(rowMap) bool { t.Fatal("emitted"); return false }); err != nil {
		t.Fatal(err)
	}
}

// Two patterns whose variable rotations conflict in every combination
// must be rejected (a second, reversed ring would be needed).
func TestInfeasibleOrderRejected(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	patterns := []Pattern{
		{S: V("x"), P: V("y"), O: V("z")},
		{S: V("x"), P: V("z"), O: V("y")},
	}
	err := joinRows(r, patterns, func(rowMap) bool { return true })
	if !errors.Is(err, ErrUnsupportedOrder) {
		t.Fatalf("conflicting rotations: got %v, want ErrUnsupportedOrder", err)
	}
}

func TestJoinWithLimit(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	patterns := []Pattern{{S: V("x"), P: V("p"), O: V("y")}}
	all := runJoin(t, r, patterns)
	if len(all) < 4 {
		t.Fatalf("need >= 4 rows for the limit test, have %d", len(all))
	}
	count := 0
	st, err := JoinWith(r, patterns, Options{Limit: 3}, func([]uint32) bool { count++; return true })
	if err != nil || count != 3 || st.Rows != 3 {
		t.Fatalf("limit: count=%d stats=%+v err=%v, want 3 rows and nil error", count, st, err)
	}
	// Every limit cuts an enumerating last level exactly.
	for _, c := range enumeratingJoins(t, g, r) {
		for k := 1; k <= c.rows; k++ {
			n := 0
			st, err := JoinWith(r, c.patterns, Options{Order: c.order, Limit: k}, func([]uint32) bool { n++; return true })
			if err != nil || n != k || st.Rows != int64(k) {
				t.Fatalf("%s: limit %d: %d rows, stats %+v, err %v", c.name, k, n, st, err)
			}
		}
	}
}

func TestJoinWithTimeout(t *testing.T) {
	// A large dense graph and an unselective 3-pattern join: the
	// enumeration must notice a 1ns deadline long before finishing.
	b := triples.NewBuilder()
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			b.Add(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", j))
		}
	}
	g := b.Build()
	r := ring.New(g, ring.WaveletMatrix)
	p, _ := g.PredID("p", false)
	patterns := []Pattern{
		{S: V("x"), P: C(p), O: V("y")},
		{S: V("y"), P: C(p), O: V("z")},
		{S: V("z"), P: C(p), O: V("w")},
	}
	count := 0
	_, err := JoinWith(r, patterns, Options{Timeout: time.Nanosecond}, func([]uint32) bool {
		count++
		return true
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout: got err=%v after %d rows, want ErrTimeout", err, count)
	}
	full := runJoin(t, r, patterns)
	if count >= len(full) {
		t.Fatalf("timeout did not truncate: %d rows of %d", count, len(full))
	}
}

func TestJoinWithFixedOrder(t *testing.T) {
	g := enginetest.Metro()
	r := ring.New(g, ring.WaveletMatrix)
	l1, _ := g.PredID("l1", false)
	l2, _ := g.PredID("l2", false)
	patterns := []Pattern{
		{S: V("x"), P: C(l1), O: V("y")},
		{S: V("y"), P: C(l2), O: V("z")},
	}
	want := sortRows(runJoin(t, r, patterns), []string{"x", "y", "z"})

	if !Feasible(patterns, []string{"x", "y", "z"}) {
		t.Fatal("x,y,z should be feasible")
	}
	var rows []rowMap
	_, err := JoinWith(r, patterns, Options{Order: []string{"x", "y", "z"}}, func(vals []uint32) bool {
		rows = append(rows, rowMap{"x": vals[0], "y": vals[1], "z": vals[2]})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	got := sortRows(rows, []string{"x", "y", "z"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixed order: got %d rows, want %d", len(got), len(want))
	}

	// An order the rotations cannot realise is rejected with the typed
	// error; an order missing a variable is rejected outright. For the
	// all-variable pattern (?x, ?p, ?y) the three rotations admit
	// exactly x<y<p, y<p<x and p<x<y, so y<x<p fits none.
	allVar := []Pattern{{S: V("x"), P: V("p"), O: V("y")}}
	if Feasible(allVar, []string{"y", "x", "p"}) {
		t.Fatal("y,x,p should be infeasible for (?x, ?p, ?y)")
	}
	_, err = JoinWith(r, allVar, Options{Order: []string{"y", "x", "p"}}, func([]uint32) bool { return true })
	if !errors.Is(err, ErrUnsupportedOrder) {
		t.Fatalf("infeasible fixed order: got %v, want ErrUnsupportedOrder", err)
	}
	_, err = JoinWith(r, patterns, Options{Order: []string{"x", "y"}}, func([]uint32) bool { return true })
	if err == nil || errors.Is(err, ErrUnsupportedOrder) {
		t.Fatalf("incomplete order: got %v, want a coverage error", err)
	}
}

// Rotation choice on the all-variable pattern (?x, ?p, ?y), whose three
// rotations admit exactly x<y<p, y<p<x and p<x<y: a variable absent
// from the order is bound after the listed ones (it used to read
// position 0, answering for a different order), which is what makes a
// prefix's verdict usable as the order search's prune.
func TestFeasibleAbsentVariable(t *testing.T) {
	allVar := []Pattern{{S: V("x"), P: V("p"), O: V("y")}}
	for _, c := range []struct {
		order    []string
		rotation string // "" = infeasible
	}{
		{[]string{"x", "y", "p"}, "s→o→p"},
		{[]string{"y", "p", "x"}, "o→p→s"},
		{[]string{"p", "x", "y"}, "p→s→o"},
		{[]string{"y", "x", "p"}, ""},
		{[]string{"x", "p", "y"}, ""},
		{[]string{"p", "y", "x"}, ""},
		// Prefixes: the absent variables come later, in either order.
		{[]string{}, "s→o→p"},
		{[]string{"x"}, "s→o→p"},
		{[]string{"y"}, "o→p→s"},
		{[]string{"p"}, "p→s→o"},
		{[]string{"x", "y"}, "s→o→p"},
		{[]string{"y", "p"}, "o→p→s"},
		{[]string{"p", "x"}, "p→s→o"},
		{[]string{"y", "x"}, ""},
		{[]string{"x", "p"}, ""},
		{[]string{"p", "y"}, ""},
	} {
		rots, ok := Rotations(allVar, c.order)
		if ok != (c.rotation != "") || ok != Feasible(allVar, c.order) {
			t.Errorf("order %v: feasible = %v, want %v", c.order, ok, c.rotation != "")
		} else if ok && rots[0] != c.rotation {
			t.Errorf("order %v: rotation %s, want %s", c.order, rots[0], c.rotation)
		}
	}

	// Among compatible rotations the one with the most leading constants
	// wins, so no constant-predicate pattern starts from a full alphabet
	// when its subject is bound first.
	for _, c := range []struct {
		pat      Pattern
		order    []string
		rotation string
	}{
		{Pattern{S: V("x"), P: C(1), O: C(2)}, []string{"x"}, "o→p→s"},
		{Pattern{S: C(2), P: C(1), O: V("y")}, []string{"y"}, "p→s→o"},
		{Pattern{S: V("x"), P: C(1), O: V("y")}, []string{"x", "y"}, "p→s→o"},
		{Pattern{S: V("x"), P: C(1), O: V("y")}, []string{"y", "x"}, "o→p→s"},
		{Pattern{S: C(2), P: V("p"), O: V("y")}, []string{"y", "p"}, "s→o→p"},
	} {
		if rots, ok := Rotations([]Pattern{c.pat}, c.order); !ok || rots[0] != c.rotation {
			t.Errorf("%+v under %v: rotation %v (feasible %v), want %s", c.pat, c.order, rots, ok, c.rotation)
		}
	}
}

// workBoundCases are three constant-anchored joins on the benchmark's
// pattern graph (g100k), with the ring they run on.
func workBoundCases(tb testing.TB) (*ring.Ring, []struct {
	name     string
	patterns []Pattern
}) {
	tb.Helper()
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60})
	r := ring.New(g, ring.WaveletMatrix)
	node := func(name string) Term {
		id, ok := g.Nodes.Lookup(name)
		if !ok {
			tb.Fatalf("no node %s", name)
		}
		return C(id)
	}
	pred := func(name string, inverse bool) Term {
		id, ok := g.PredID(name, inverse)
		if !ok {
			tb.Fatalf("no predicate %s", name)
		}
		return C(id)
	}
	return r, []struct {
		name     string
		patterns []Pattern
	}{
		{"one-constant star", []Pattern{ // ?x P10 Q2867 . ?x ^P18 ?y
			{S: V("x"), P: pred("P10", false), O: node("Q2867")},
			{S: V("x"), P: pred("P18", true), O: V("y")},
		}},
		{"two-constant star", []Pattern{ // ?x ^P49 Q15436 . ?x ^P12 Q17669 . ?x ^P12 ?y
			{S: V("x"), P: pred("P49", true), O: node("Q15436")},
			{S: V("x"), P: pred("P12", true), O: node("Q17669")},
			{S: V("x"), P: pred("P12", true), O: V("y")},
		}},
		{"constant-ended chain", []Pattern{ // ?a P45 ?b . ?b ^P10 ?c . ?c ^P10 Q5873
			{S: V("a"), P: pred("P45", false), O: V("b")},
			{S: V("b"), P: pred("P10", true), O: V("c")},
			{S: V("c"), P: pred("P10", true), O: node("Q5873")},
		}},
	}
}

// chosenOrder is ChooseOrder's order for patterns.
func chosenOrder(tb testing.TB, r *ring.Ring, patterns []Pattern) []string {
	tb.Helper()
	order, err := ChooseOrder(patterns, Estimates(r, patterns), time.Time{})
	if err != nil {
		tb.Fatal(err)
	}
	return order
}

// TestJoinWorkBound pins the work of constant-anchored joins on the
// benchmark's pattern graph: every variable starts from a range some
// constant narrowed, so the candidates produced (sought or enumerated)
// and the backward-search steps are bounded by the anchor's candidates
// plus the rows, not by the node universe (the first-compatible-rotation
// rule walked all 20 000 node ids for each of these).
func TestJoinWorkBound(t *testing.T) {
	r, cases := workBoundCases(t)
	for _, c := range cases {
		anchor := float64(r.N)
		for _, e := range Estimates(r, c.patterns) {
			if e < anchor {
				anchor = e
			}
		}
		st, err := JoinWith(r, c.patterns, Options{}, func([]uint32) bool { return true })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: anchor %v, %+v", c.name, anchor, st)
		if st.Rows == 0 || anchor == 0 {
			t.Fatalf("%s: no rows (%+v, anchor %v); the case tests nothing", c.name, st, anchor)
		}
		if bound := 4 * (int64(anchor) + st.Rows); st.Seeks+st.Binds > bound || st.Binds > int64(r.NumNodes)/4 {
			t.Errorf("%s: %d seeks and %d binds for %v anchored candidates and %d rows (bound %d, %d nodes)",
				c.name, st.Seeks, st.Binds, anchor, st.Rows, bound, r.NumNodes)
		}
	}
}

// A join under a fixed order allocates only its compiled parts and run
// state: as many objects when it stops at the first row as when it
// emits all of them, so nothing is allocated per row or per candidate.
func TestJoinWithAllocs(t *testing.T) {
	r, cases := workBoundCases(t)
	emit := func([]uint32) bool { return true }
	for _, c := range cases {
		order := chosenOrder(t, r, c.patterns)
		full := testing.AllocsPerRun(20, func() { JoinWith(r, c.patterns, Options{Order: order}, emit) })
		first := testing.AllocsPerRun(20, func() { JoinWith(r, c.patterns, Options{Order: order, Limit: 1}, emit) })
		if full != first {
			t.Errorf("%s: %v allocs per full join, %v stopping at the first row; want equal", c.name, full, first)
		}
	}
}

// BenchmarkJoinWith times TestJoinWorkBound's joins under a fixed
// order, as the query executor runs a memoised plan's join.
func BenchmarkJoinWith(b *testing.B) {
	r, cases := workBoundCases(b)
	emit := func([]uint32) bool { return true }
	for _, c := range cases {
		opts := Options{Order: chosenOrder(b, r, c.patterns)}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := JoinWith(r, c.patterns, opts, emit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
