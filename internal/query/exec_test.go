package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ringrpq/internal/datagen"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// orgGraph is the organisational graph of examples/joins.
func orgGraph() *triples.Graph {
	b := triples.NewBuilder()
	b.Add("ana", "manages", "bo")
	b.Add("bo", "manages", "cleo")
	b.Add("bo", "manages", "dmitri")
	b.Add("ana", "manages", "erin")
	b.Add("cleo", "assigned", "apollo")
	b.Add("dmitri", "assigned", "zephyr")
	b.Add("erin", "assigned", "apollo")
	b.Add("apollo", "status", "active")
	b.Add("zephyr", "status", "archived")
	return b.Build()
}

// binding is one result row by name: variable name (without '?') to
// the bound node name, or, for predicate-position variables, the
// completed predicate name ('^'-prefixed for inverses).
type binding map[string]string

// runBindings runs q on x, rendering every row as a binding by name.
func runBindings(x *Exec, q *Query, opts Options, emit func(binding) bool) error {
	vars, preds := q.Vars(), q.PredVars()
	return x.Run(q, opts, func(row []uint32) bool {
		b := make(binding, len(row))
		for i, v := range vars {
			if preds[v] {
				b[v] = x.g.PredName(row[i])
			} else {
				b[v] = x.g.Nodes.Name(row[i])
			}
		}
		return emit(b)
	})
}

func runPattern(t *testing.T, x *Exec, src string, opts Options) []binding {
	t.Helper()
	var out []binding
	if err := runBindings(x, MustParse(src), opts, func(b binding) bool {
		out = append(out, b)
		return true
	}); err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return out
}

// renderBindings sorts bindings into canonical strings for comparison.
func renderBindings(bs []binding) []string {
	var out []string
	for _, b := range bs {
		var keys []string
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, k+"="+b[k])
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

func TestExecMixedBGPAndRPQ(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	// Managers with a (transitive) report on an active project.
	got := renderBindings(runPattern(t,
		x, "SELECT ?m ?proj WHERE { ?m manages+ ?e . ?e assigned ?proj . ?proj status active }", Options{}))
	// ana reaches bo, cleo, dmitri, erin; bo reaches cleo, dmitri.
	// cleo/erin → apollo (active), dmitri → zephyr (archived).
	want := []string{
		"e=cleo,m=ana,proj=apollo",
		"e=cleo,m=bo,proj=apollo",
		"e=erin,m=ana,proj=apollo",
	}
	if !eqStrings(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestExecPureBGP(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	got := renderBindings(runPattern(t, x, "?e assigned ?p . ?p status active", Options{}))
	want := []string{"e=cleo,p=apollo", "e=erin,p=apollo"}
	if !eqStrings(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestExecPureRPQ(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	got := renderBindings(runPattern(t, x, "ana manages/manages ?e", Options{}))
	want := []string{"e=cleo", "e=dmitri"}
	if !eqStrings(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestExecVariablePredicate(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	got := renderBindings(runPattern(t, x, "apollo ?p ?o", Options{}))
	// Completed graph: apollo -status-> active and apollo -^assigned-> cleo/erin.
	want := []string{"o=active,p=status", "o=cleo,p=^assigned", "o=erin,p=^assigned"}
	if !eqStrings(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestExecConstantsAndEmpty(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	// All-constant truths emit one empty binding.
	if got := runPattern(t, x, "ana manages bo . apollo status active", Options{}); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("all-const true: %v", got)
	}
	if got := runPattern(t, x, "ana manages cleo", Options{}); len(got) != 0 {
		t.Fatalf("all-const false: %v", got)
	}
	// Unknown constants anywhere make the pattern provably empty.
	for _, src := range []string{
		"nosuch manages ?x",
		"?x nosuchpred ?y",
		"?x manages+ nosuch . ?x manages ?y",
	} {
		if got := runPattern(t, x, src, Options{}); len(got) != 0 {
			t.Fatalf("%q: expected empty, got %v", src, got)
		}
	}
	// An unknown predicate inside a path expression is not fatal: other
	// branches may still match.
	got := renderBindings(runPattern(t, x, "ana (nosuchpred|manages) ?x", Options{}))
	want := []string{"x=bo", "x=erin"}
	if !eqStrings(got, want) {
		t.Fatalf("alt with unknown branch: got %v want %v", got, want)
	}
}

func TestExecSameVarBothEnds(t *testing.T) {
	b := triples.NewBuilder()
	b.Add("a", "p", "a")
	b.Add("a", "p", "b")
	b.Add("b", "p", "c")
	b.Add("c", "q", "c")
	g := b.Build()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	got := renderBindings(runPattern(t, x, "?x p ?x", Options{}))
	if !eqStrings(got, []string{"x=a"}) {
		t.Fatalf("triple self-loop: %v", got)
	}
	got = renderBindings(runPattern(t, x, "?x p/p ?x", Options{}))
	if !eqStrings(got, []string{"x=a"}) {
		t.Fatalf("rpq self-pairs: %v", got)
	}
}

func TestExecLimitAndTimeout(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	got := runPattern(t, x, "?m manages* ?e", Options{Limit: 3})
	if len(got) != 3 {
		t.Fatalf("limit: %d bindings", len(got))
	}

	// A dense graph where the pipeline has real work per row, so a
	// 1ns deadline fires inside evaluation.
	b := triples.NewBuilder()
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			b.Add(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", j))
		}
	}
	dense := b.Build()
	xd := NewExec(dense, ring.New(dense, ring.WaveletMatrix))
	err := runBindings(xd, MustParse("?x p ?y . ?y p+ ?z"), Options{Timeout: time.Nanosecond}, func(binding) bool { return true })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout: got %v", err)
	}
}

func TestPlanSelectivityOrder(t *testing.T) {
	// rare: 1 edge; common: many edges. The planner must bind the
	// variable constrained by the rare predicate first.
	b := triples.NewBuilder()
	b.Add("s0", "rare", "t0")
	for i := 0; i < 40; i++ {
		b.Add(fmt.Sprintf("a%d", i), "common", fmt.Sprintf("b%d", i%7))
	}
	// Connect the two relations so the pattern below joins them.
	b.Add("t0", "common", "b0")
	g := b.Build()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))

	q := MustParse("?x rare ?y . ?y common ?z")
	pl, err := x.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Order) != 3 {
		t.Fatalf("order = %v", pl.Order)
	}
	if pl.Order[len(pl.Order)-1] == "x" || pl.Order[len(pl.Order)-1] == "y" {
		t.Fatalf("unselective ?z should come last, got order %v (estimates %v)", pl.Order, pl.VarEst)
	}
	if pl.VarEst["x"] >= pl.VarEst["z"] {
		t.Fatalf("est(x)=%v should be below est(z)=%v", pl.VarEst["x"], pl.VarEst["z"])
	}

	// The estimates themselves, against counts over the triples: a
	// triple clause's ends are its predicate's distinct subjects and
	// objects, a ^p clause's the other way round, and an RPQ end the sum
	// over the predicates it can leave the node on.
	subj, obj := bruteDistinct(g, "common")
	rareS, rareO := bruteDistinct(g, "rare")
	for _, c := range []struct {
		q    string
		want map[string]float64
	}{
		{"?x common ?z", map[string]float64{"x": subj, "z": obj}},
		{"?z ^common ?x", map[string]float64{"z": obj, "x": subj}},
		{"?a (rare|^common)/common ?b", map[string]float64{"a": rareS + obj, "b": obj}},
		{"?a common/(rare|common) ?b", map[string]float64{"a": subj, "b": rareO + obj}},
	} {
		pl, err := x.Plan(MustParse(c.q))
		if err != nil {
			t.Fatal(err)
		}
		for v, want := range c.want {
			if pl.VarEst[v] != want {
				t.Fatalf("%s: est(%s) = %v, want %v (estimates %v)", c.q, v, pl.VarEst[v], want, pl.VarEst)
			}
		}
	}

	// RPQ boundary estimates point the right way: "fan" has 30 distinct
	// sources and a single target, so an RPQ clause's object end must
	// look cheap and its subject end expensive (regression for the
	// double-inversion where est(object) counted sources).
	bf := triples.NewBuilder()
	for i := 0; i < 30; i++ {
		bf.Add(fmt.Sprintf("s%d", i), "fan", "sink")
	}
	gf := bf.Build()
	xf := NewExec(gf, ring.New(gf, ring.WaveletMatrix))
	plf, err := xf.Plan(MustParse("?a fan/fan? ?b"))
	if err != nil {
		t.Fatal(err)
	}
	if plf.VarEst["b"] >= 5 || plf.VarEst["a"] < 20 {
		t.Fatalf("fan estimates inverted: est(a)=%v est(b)=%v", plf.VarEst["a"], plf.VarEst["b"])
	}

	// RPQ scheduling: with both endpoints coverable by the BGP, the path
	// clause becomes a pure existence check (cost 0).
	q2 := MustParse("?x rare ?y . ?y common ?z . ?x common* ?z")
	pl2, err := x.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl2.Steps) != 1 || pl2.Steps[0].Est != 0 {
		t.Fatalf("existence step expected: %+v", pl2.Steps)
	}
}

// bruteDistinct counts the distinct subjects and objects of the named
// predicate over g's triples.
func bruteDistinct(g *triples.Graph, name string) (subjects, objects float64) {
	id, _ := g.PredID(name, false)
	subs, objs := map[uint32]bool{}, map[uint32]bool{}
	for _, tr := range g.Triples {
		if tr.P == id {
			subs[tr.S], objs[tr.O] = true, true
		}
	}
	return float64(len(subs)), float64(len(objs))
}

// The planner's one statistic, the distinct subjects of a completed
// predicate, is counted on the Exec's ring at the first ask and kept
// in its memo: every completed predicate, inverses included, must
// match a count over the triples, on the paper's Fig. 1 graph and on a
// generated one.
func TestExecDistinctSubjects(t *testing.T) {
	fig1 := triples.NewBuilder()
	add := func(s, p, o string) { fig1.Add(s, p, o); fig1.Add(o, p, s) }
	add("Baq", "l1", "UCh")
	add("UCh", "l1", "LH")
	add("LH", "l2", "SA")
	add("SA", "l5", "BA")
	add("BA", "l5", "Baq")
	fig1.Add("SA", "bus", "UCh")
	fig1.Add("SA", "bus", "BA")
	for name, g := range map[string]*triples.Graph{
		"fig1":    fig1.Build(),
		"datagen": datagen.Generate(datagen.Config{Seed: 3, Nodes: 300, Edges: 1500, Preds: 7}),
	} {
		want := make([]map[uint32]bool, g.NumCompletedPreds())
		for i := range want {
			want[i] = map[uint32]bool{}
		}
		for _, tr := range g.Triples {
			want[tr.P][tr.S] = true
		}
		x := NewExec(g, ring.New(g, ring.WaveletMatrix))
		p := &planner{g: x.g, r: x.r, subjects: x.subjects}
		for id := range g.NumCompletedPreds() {
			if x.subjects[id] != -1 {
				t.Fatalf("%s: %s counted before it was asked", name, g.PredName(id))
			}
			for range 2 {
				if got := p.distinctSubjects(id); got != len(want[id]) {
					t.Fatalf("%s: %s has %d distinct subjects, want %d", name, g.PredName(id), got, len(want[id]))
				}
			}
			if x.subjects[id] != len(want[id]) {
				t.Fatalf("%s: %s memoised as %d, want %d", name, g.PredName(id), x.subjects[id], len(want[id]))
			}
		}
	}
}

func TestExecDistinctBindings(t *testing.T) {
	// Two distinct paths between the same endpoints must yield one
	// binding (set semantics end to end).
	b := triples.NewBuilder()
	b.Add("a", "p", "m1")
	b.Add("a", "p", "m2")
	b.Add("m1", "p", "z")
	b.Add("m2", "p", "z")
	g := b.Build()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	got := renderBindings(runPattern(t, x, "a p/p ?z", Options{}))
	if !eqStrings(got, []string{"z=z"}) {
		t.Fatalf("distinct: %v", got)
	}
}
