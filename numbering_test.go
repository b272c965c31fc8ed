package ringrpq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ringrpq/internal/core"
	"ringrpq/internal/datagen"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/ring/ringtest"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// fileOrder builds the completed graph of an .nt dump with the ids of
// first appearance, the numbering Build starts from.
func fileOrder(t testing.TB, nt []byte) *triples.Graph {
	t.Helper()
	tb := triples.NewBuilder()
	if err := triples.Load(bytes.NewReader(nt), tb); err != nil {
		t.Fatal(err)
	}
	return tb.Build()
}

// buildNT builds a database from an .nt dump through the public builder.
func buildNT(t testing.TB, nt []byte) *DB {
	t.Helper()
	b := NewBuilder()
	if err := b.Load(bytes.NewReader(nt)); err != nil {
		t.Fatal(err)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// dumpNT renders a generated graph as the .nt text rpqd would load.
func dumpNT(t testing.TB, g *triples.Graph) []byte {
	t.Helper()
	var nt bytes.Buffer
	if err := triples.Dump(&nt, g); err != nil {
		t.Fatal(err)
	}
	return nt.Bytes()
}

// namedTriples renders completed triples by name, sorted.
func namedTriples(g *triples.Graph, ts []triples.Triple) []string {
	out := make([]string, len(ts))
	for i, tr := range ts {
		out[i] = g.String(tr)
	}
	sort.Strings(out)
	return out
}

// After Build, node ids follow the locality numbering
// (triples.Graph.NumberByLocality): a breadth-first search from each
// not yet numbered node of highest completed degree, neighbours in
// decreasing degree, ties in (p,o) order.
func TestBuildNumbersByLocality(t *testing.T) {
	// Completed degrees: h 3; a, b, c and v 2; x, u and w 1. First
	// appearance gives x h a b c u v w. h's neighbours are b (over p),
	// a (over q) and x (over ^p): b and a tie on degree, and p comes
	// before q, so b is numbered before a although a appeared first.
	// Once the search from h has numbered its component, the next root
	// is v, the unnumbered node of highest degree.
	const nt = `x p h .
h q a .
h p b .
a p c .
b q c .
u p v .
w p v .
`
	db := buildNT(t, []byte(nt))
	want := []string{"h", "b", "a", "x", "c", "v", "u", "w"}
	if got := db.g.Nodes.NamesView(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ids name %v, want %v", got, want)
	}

	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nt bytes.Buffer
		nv, np := 2+rng.Intn(60), 1+rng.Intn(5)
		for i := 0; i < 3*nv/2; i++ {
			// Low node numbers draw more edges, but first appear in
			// a shuffled order; the graph falls into a few components.
			s, o := rng.Intn(1+rng.Intn(nv)), rng.Intn(nv)
			fmt.Fprintf(&nt, "n%d p%d n%d .\n", s, rng.Intn(np), o)
		}
		fg := fileOrder(t, nt.Bytes())
		deg := make([]int, fg.NumNodes())
		for _, tr := range fg.Triples {
			deg[tr.S]++
		}
		db := buildNT(t, nt.Bytes())
		if db.g.NumNodes() != fg.NumNodes() {
			t.Fatalf("seed %d: %d nodes, want %d", seed, db.g.NumNodes(), fg.NumNodes())
		}
		// old[id] is the first-appearance id of the node now numbered
		// id; each name is numbered once.
		old := make([]uint32, db.g.NumNodes())
		numbered := make([]bool, fg.NumNodes())
		for id := range old {
			name := db.g.Nodes.Name(uint32(id))
			if got, ok := db.g.Nodes.Lookup(name); !ok || got != uint32(id) {
				t.Fatalf("seed %d: Lookup(%q) = %d, %v; want %d", seed, name, got, ok, id)
			}
			o, ok := fg.Nodes.Lookup(name)
			if !ok || numbered[o] {
				t.Fatalf("seed %d: id %d names %q, not a distinct input node", seed, id, name)
			}
			old[id], numbered[o] = o, true
		}
		if db.g.Triples != nil {
			t.Fatalf("seed %d: a built database keeps %d triples", seed, len(db.g.Triples))
		}
		r := db.h.cur.Load().r
		ts := ringtest.Triples(r)
		if got, want := namedTriples(db.g, ts), namedTriples(fg, fg.Triples); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the ring holds %d triples that differ from the input's %d", seed, len(got), len(want))
		}
		// A node with no neighbour of a lower id starts a component:
		// it must outrank every node numbered after it by degree, then
		// by first appearance.
		minNbr := make([]uint32, len(old))
		for i := range minNbr {
			minNbr[i] = uint32(i)
		}
		for _, tr := range ts {
			minNbr[tr.S] = min(minNbr[tr.S], tr.O)
		}
		for id, o := range old {
			if minNbr[id] < uint32(id) {
				continue
			}
			for _, later := range old[id+1:] {
				if deg[later] > deg[o] || deg[later] == deg[o] && later < o {
					t.Fatalf("seed %d: component root %s (degree %d) numbered before %s (degree %d)",
						seed, fg.Nodes.Name(o), deg[o], fg.Nodes.Name(later), deg[later])
				}
			}
		}
	}
}

// Two builds of the same input save the same bytes: the numbering is a
// function of the input, which WAL replay without a checkpoint (a
// rebuild from the data file) relies on.
func TestBuildDeterministic(t *testing.T) {
	nt := dumpNT(t, datagen.Generate(datagen.Config{Seed: 3, Nodes: 500, Edges: 2000, Preds: 8}))
	var saves [2]bytes.Buffer
	for i := range saves {
		if err := buildNT(t, nt).Save(&saves[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saves[0].Bytes(), saves[1].Bytes()) {
		t.Fatalf("two builds of one input save %d and %d differing bytes", saves[0].Len(), saves[1].Len())
	}
}

// logWork sums the work counts of a query log's evaluations.
type logWork struct {
	visits, subjectVisits, productNodes, productEdges int
}

func (w *logWork) add(st core.Stats) {
	w.visits += st.WaveletVisits
	w.subjectVisits += st.SubjectVisits
	w.productNodes += st.ProductNodes
	w.productEdges += st.ProductEdges
}

// String renders the visits with the part-2 (L_s) share.
func (w logWork) String() string {
	return fmt.Sprintf("%d visits (%d in L_s, %.1f %%)", w.visits, w.subjectVisits,
		100*float64(w.subjectVisits)/float64(max(w.visits, 1)))
}

// evalLog evaluates a query log on eng and returns the summed work and
// each query's answers by name.
func evalLog(t testing.TB, g *triples.Graph, eng *core.Engine, qs []workload.Query, limit int) (logWork, [][]string) {
	t.Helper()
	var work logWork
	answers := make([][]string, len(qs))
	for i, q := range qs {
		var got []string
		st, err := eng.Eval(context.Background(), logQuery(t, g, q), core.Options{Limit: limit},
			func(s, o uint32) bool {
				got = append(got, g.Nodes.Name(s)+" "+g.Nodes.Name(o))
				return true
			})
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		work.add(st)
		sort.Strings(got)
		answers[i] = got
	}
	return work, answers
}

// logQuery resolves a generated query's endpoints in g.
func logQuery(t testing.TB, g *triples.Graph, q workload.Query) core.Query {
	t.Helper()
	endpoint := func(name string) int64 {
		if name == "" {
			return core.Variable
		}
		id, ok := g.Nodes.Lookup(name)
		if !ok {
			t.Fatalf("node %q not in the graph", name)
		}
		return int64(id)
	}
	return core.Query{Subject: endpoint(q.Subject), Expr: q.Expr, Object: endpoint(q.Object)}
}

// newEngine returns a fresh kernel over one ring of g.
func newEngine(g *triples.Graph, r *ring.Ring) *core.Engine {
	return core.NewEngine(r, func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) })
}

// splitLog separates a query log into its c-to-v and v-to-v queries.
func splitLog(qs []workload.Query) (c2v, v2v []workload.Query) {
	for _, q := range qs {
		if q.ConstToVar() {
			c2v = append(c2v, q)
		} else {
			v2v = append(v2v, q)
		}
	}
	return c2v, v2v
}

// g100k returns the g100k-shaped datagen graph (seed 1; the benchmark's
// mixed_rw and pattern_select graph) as .nt text, its completed graph
// in file order, and a 289-query Table-1 log generated over the latter.
func g100k(t testing.TB) ([]byte, *triples.Graph, []workload.Query) {
	t.Helper()
	nt := dumpNT(t, datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60}))
	fg := fileOrder(t, nt)
	return nt, fg, workload.Generate(fg, workload.Config{Seed: 1, Total: 300})
}

// numberByDegree rebuilds a file-order graph with its nodes numbered by
// decreasing completed degree, ties by id: the numbering builds used
// before the locality one, kept here as its yardstick.
func numberByDegree(t testing.TB, fg *triples.Graph) *triples.Graph {
	t.Helper()
	deg := make([]int, fg.NumNodes())
	for _, tr := range fg.Triples {
		deg[tr.S]++
	}
	order := make([]uint32, fg.NumNodes())
	for v := range order {
		order[v] = uint32(v)
	}
	sort.SliceStable(order, func(i, j int) bool { return deg[order[i]] > deg[order[j]] })
	b := triples.NewBuilder()
	newID := make([]uint32, len(order))
	for _, v := range order {
		newID[v] = b.Nodes().Intern(fg.Nodes.Name(v))
	}
	for p := range fg.NumPreds {
		b.Preds().Intern(fg.Preds.Name(p))
	}
	for _, tr := range fg.Triples {
		if tr.P < fg.NumPreds {
			b.AddIDs(newID[tr.S], tr.P, newID[tr.O])
		}
	}
	return b.Build()
}

// The numbering's reason to exist, as a count: on the g100k graph, a
// Table-1 log at the benchmark's limit of 1000 touches at least 10 %
// fewer wavelet nodes through the built database's ring than through a
// ring over the same graph in file order (it logs −29 %), and at least
// 5 % fewer than through a ring numbered by degree alone (−11 %). The
// answers agree with file order's by name: without a limit on the
// log's queries with a constant endpoint (the paper's c-to-v class,
// most of the log), and by count at the limit on its
// variable-to-variable closures, which run to millions of pairs and
// seconds each unlimited.
func TestDegreeNumberingVisits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 150 k-triple graph three times")
	}
	nt, fg, qs := g100k(t)
	db := buildNT(t, nt)
	built := newEngine(db.g, db.h.cur.Load().r)
	plain := newEngine(fg, ring.New(fg, ring.WaveletMatrix))
	dg := numberByDegree(t, fg)
	byDegree, _ := evalLog(t, dg, newEngine(dg, ring.New(dg, ring.WaveletMatrix)), qs, 1000)
	byLocality, _ := evalLog(t, db.g, built, qs, 1000)
	byFile, _ := evalLog(t, fg, plain, qs, 1000)
	pct := func(a, b logWork) float64 { return 100 * float64(a.visits-b.visits) / float64(b.visits) }
	t.Logf("over %d queries at limit 1000: by locality %v; by degree %v; in file order %v (%+.1f %% against degree, %+.1f %% against file order)",
		len(qs), byLocality, byDegree, byFile, pct(byLocality, byDegree), pct(byLocality, byFile))
	if 10*byLocality.visits > 9*byFile.visits {
		t.Fatalf("locality numbering visits %d wavelet nodes, want at most 90 %% of file order's %d", byLocality.visits, byFile.visits)
	}
	if 20*byLocality.visits > 19*byDegree.visits {
		t.Fatalf("locality numbering visits %d wavelet nodes, want at most 95 %% of degree order's %d", byLocality.visits, byDegree.visits)
	}

	c2v, v2v := splitLog(qs)
	_, want := evalLog(t, fg, plain, c2v, 0)
	_, got := evalLog(t, db.g, built, c2v, 0)
	for i, q := range c2v {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%v: %d answers by locality, %d in file order", q, len(got[i]), len(want[i]))
		}
	}
	_, want = evalLog(t, fg, plain, v2v, 1000)
	_, got = evalLog(t, db.g, built, v2v, 1000)
	for i, q := range v2v {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%v at limit 1000: %d answers by locality, %d in file order", q, len(got[i]), len(want[i]))
		}
	}
}
