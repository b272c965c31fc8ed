package ringrpq

import (
	"context"
	"testing"

	"ringrpq/internal/core"
	"ringrpq/internal/datagen"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/workload"
)

// checkCeiling fails a count above its ceiling and logs one 2 % or
// more below it.
func checkCeiling(t *testing.T, name string, got, limit int) {
	t.Helper()
	switch {
	case got > limit:
		t.Errorf("%s: %d, above its ceiling of %d", name, got, limit)
	case 50*got <= 49*limit:
		t.Logf("%s: %d, %.1f %% below its ceiling of %d: lower the ceiling", name, got,
			100*float64(limit-got)/float64(limit), limit)
	}
}

// TestWorkCeilings is the work ratchet, as TestIndexBytesPerTriple is
// the space one: exact counts of what the g100k Table-1 log costs
// through a built database at the benchmark's limit of 1000, and the
// allocations of a warm evaluation, each held under a ceiling written
// here. A count above its ceiling fails. A count 2 % or more below it
// is logged: the change that lowers a count lowers its ceiling in the
// same commit. The counts are a function of the graph and the log, so
// the log is evaluated twice, on a fresh kernel and on a Clone's, and
// both must agree.
func TestWorkCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 150 k-triple graph twice")
	}
	nt, _, qs := g100k(t)
	db := buildNT(t, nt)
	c2v, v2v := splitLog(qs)
	if len(c2v) != 260 || len(v2v) != 29 {
		t.Fatalf("the log splits into %d c2v and %d v2v queries, want 260 and 29", len(c2v), len(v2v))
	}

	clone := db.Clone()
	snap := clone.h.acquire()
	defer clone.h.release(snap)
	engines := []*core.Engine{newEngine(db.g, db.h.cur.Load().r), clone.evaluatorFor(snap)}
	for _, part := range []struct {
		name                          string
		log                           []workload.Query
		visits, subject, nodes, edges int
	}{
		{"c2v", c2v, 1196632, 1126031, 314519, 47231},
		{"v2v", v2v, 88949, 87184, 16519, 1114},
	} {
		fresh, _ := evalLog(t, db.g, engines[0], part.log, 1000)
		cloned, _ := evalLog(t, db.g, engines[1], part.log, 1000)
		if fresh != cloned {
			t.Fatalf("%s: a fresh kernel counts %#v, a clone's %#v", part.name, fresh, cloned)
		}
		t.Logf("%s: %v, %d product nodes, %d product edges", part.name, fresh, fresh.productNodes, fresh.productEdges)
		checkCeiling(t, part.name+" wavelet visits", fresh.visits, part.visits)
		checkCeiling(t, part.name+" L_s visits", fresh.subjectVisits, part.subject)
		checkCeiling(t, part.name+" product nodes", fresh.productNodes, part.nodes)
		checkCeiling(t, part.name+" product edges", fresh.productEdges, part.edges)
	}

	// A warm evaluation of the log's first query of each class, on the
	// clone's kernel that has just run them.
	if raceEnabled {
		t.Log("allocation ceilings skipped: the race detector allocates")
		return
	}
	for _, warm := range []struct {
		name   string
		q      workload.Query
		allocs int
	}{
		{"c2v", c2v[0], 2},
		{"v2v", v2v[0], 16},
	} {
		q := logQuery(t, db.g, warm.q)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := engines[1].Eval(context.Background(), q, core.Options{Limit: 1000},
				func(uint32, uint32) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("warm %s eval %v: %v allocs", warm.name, warm.q, allocs)
		checkCeiling(t, "warm "+warm.name+" eval allocs", int(allocs), warm.allocs)
	}
}

// TestVarVarClosureWork holds the work of the three v→v closures that
// decide BenchmarkTable2's total on its fixture, at the benchmark's
// limit of 100 000, under exact ceilings as TestWorkCeilings does: the
// product nodes, the wavelet visits and their L_s share. Phase 2 runs
// one traversal per phase-1 candidate, so these counts are what a
// traversal shared across candidates would lower.
func TestVarVarClosureWork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Table 2 fixture")
	}
	db := buildNT(t, dumpNT(t, datagen.Generate(table2Graph)))
	eng := newEngine(db.g, db.h.cur.Load().r)
	for _, c := range []struct {
		expr                    string
		nodes, visits, subjects int
	}{
		{"P26*", 98260, 484202, 439629},
		{"P25/P25*", 101127, 404717, 362848},
		{"P25+", 101164, 406371, 364109},
	} {
		q := core.Query{Subject: core.Variable, Expr: pathexpr.MustParse(c.expr), Object: core.Variable}
		st, err := eng.Eval(context.Background(), q, core.Options{Limit: 100000}, func(uint32, uint32) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("(?x, %s, ?y): %d results, %d product nodes, %d wavelet visits (%d in L_s)",
			c.expr, st.Results, st.ProductNodes, st.WaveletVisits, st.SubjectVisits)
		checkCeiling(t, c.expr+" product nodes", st.ProductNodes, c.nodes)
		checkCeiling(t, c.expr+" wavelet visits", st.WaveletVisits, c.visits)
		checkCeiling(t, c.expr+" L_s visits", st.SubjectVisits, c.subjects)
	}
}
