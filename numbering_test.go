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

// After Build, node ids run in non-increasing completed degree, ties in
// first-appearance order, and the ring holds the input's triples.
func TestBuildNumbersByDegree(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nt bytes.Buffer
		nv, np := 2+rng.Intn(60), 1+rng.Intn(5)
		for i := 0; i < 3*nv; i++ {
			// Low node numbers draw more edges, but first appear in
			// a shuffled order.
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
		prevDeg, prevID := -1, -1
		for id := 0; id < db.g.NumNodes(); id++ {
			name := db.g.Nodes.Name(uint32(id))
			if got, ok := db.g.Nodes.Lookup(name); !ok || got != uint32(id) {
				t.Fatalf("seed %d: Lookup(%q) = %d, %v; want %d", seed, name, got, ok, id)
			}
			old, _ := fg.Nodes.Lookup(name)
			d := deg[old]
			if prevDeg >= 0 && (d > prevDeg || d == prevDeg && int(old) < prevID) {
				t.Fatalf("seed %d: id %d (%s, degree %d, first seen %d) follows degree %d, first seen %d",
					seed, id, name, d, old, prevDeg, prevID)
			}
			prevDeg, prevID = d, int(old)
		}
		if db.g.Triples != nil {
			t.Fatalf("seed %d: a built database keeps %d triples", seed, len(db.g.Triples))
		}
		r := db.h.cur.Load().r
		if got, want := namedTriples(db.g, r.Triples()), namedTriples(fg, fg.Triples); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the ring holds %d triples that differ from the input's %d", seed, len(got), len(want))
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

// runVisits evaluates a query log on one ring and returns the summed
// wavelet-node visits and each query's answers by name.
func runVisits(t *testing.T, g *triples.Graph, r *ring.Ring, qs []workload.Query, limit int) (int, [][]string) {
	t.Helper()
	eng := core.NewEngine(r, func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) })
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
	visits := 0
	answers := make([][]string, len(qs))
	for i, q := range qs {
		var got []string
		st, err := eng.Eval(context.Background(),
			core.Query{Subject: endpoint(q.Subject), Expr: q.Expr, Object: endpoint(q.Object)},
			core.Options{Limit: limit},
			func(s, o uint32) bool {
				got = append(got, g.Nodes.Name(s)+" "+g.Nodes.Name(o))
				return true
			})
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		visits += st.WaveletVisits
		sort.Strings(got)
		answers[i] = got
	}
	return visits, answers
}

// The numbering's reason to exist, as a count: on a g100k-shaped graph
// (the benchmark's mixed_rw and pattern_select graph), a Table-1 log at
// the benchmark's limit of 1000 touches at least 10 % fewer wavelet
// nodes through the built database's ring than through a ring over the
// same graph in file order (it logs −20 %). Without a limit both
// give the same answers by name. That check covers the log's queries
// with a constant endpoint (the paper's c-to-v class, most of the log);
// its variable-to-variable closures run to millions of pairs and
// seconds each on this graph.
func TestDegreeNumberingVisits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 150 k-triple graph twice")
	}
	nt := dumpNT(t, datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60}))
	fg := fileOrder(t, nt)
	qs := workload.Generate(fg, workload.Config{Seed: 1, Total: 300})
	db := buildNT(t, nt)
	built := db.h.cur.Load().r
	plain := ring.New(fg, ring.WaveletMatrix)

	byDegree, _ := runVisits(t, db.g, built, qs, 1000)
	byFile, _ := runVisits(t, fg, plain, qs, 1000)
	t.Logf("wavelet visits over %d queries at limit 1000: %d by degree, %d in file order (%+.1f %%)",
		len(qs), byDegree, byFile, 100*float64(byDegree-byFile)/float64(byFile))
	if 10*byDegree > 9*byFile {
		t.Fatalf("degree numbering visits %d wavelet nodes, want at most 90 %% of file order's %d", byDegree, byFile)
	}

	var c2v []workload.Query
	for _, q := range qs {
		if q.ConstToVar() {
			c2v = append(c2v, q)
		}
	}
	_, want := runVisits(t, fg, plain, c2v, 0)
	_, got := runVisits(t, db.g, built, c2v, 0)
	for i, q := range c2v {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%v: %d answers by degree, %d in file order", q, len(got[i]), len(want[i]))
		}
	}
}
