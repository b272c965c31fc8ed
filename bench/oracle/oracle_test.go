package oracle

import (
	"testing"

	"ringrpq/bench/oplog"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
)

func ints(lo, hi int) map[int]bool {
	out := map[int]bool{}
	for i := lo; i < hi; i++ {
		out[i] = true
	}
	return out
}

// The limit-aware comparison: below the limit the answer must be the
// oracle's set exactly; at the limit it must be a subset of it; above
// the limit it is wrong whatever it holds.
func TestLimitedComparison(t *testing.T) {
	in := func(set map[int]bool) func(int) bool { return func(k int) bool { return set[k] } }
	L := oplog.Limit
	for _, c := range []struct {
		name string
		got  map[int]bool
		want map[int]bool
		ok   Verdict
	}{
		{"equal below the limit", ints(0, 10), ints(0, 10), OK},
		{"empty", ints(0, 0), ints(0, 0), OK},
		{"one missing", ints(0, 9), ints(0, 10), Mismatch},
		{"one extra", ints(0, 11), ints(0, 10), Mismatch},
		{"same size, one wrong", ints(1, 11), ints(0, 10), Mismatch},
		{"short answer exposed by limit+1 oracle pairs", ints(0, 10), ints(0, L+1), Mismatch},
		{"full answer, subset of a larger set", ints(500, 500+L), ints(0, 3*L), OK},
		{"full answer, the whole set", ints(0, L), ints(0, L), OK},
		{"full answer with a stranger", ints(2*L-1, 3*L-1), ints(0, 2*L), Mismatch},
		{"beyond the limit", ints(0, L+1), ints(0, L+1), Mismatch},
	} {
		if v, why := limited(len(c.got), c.want, in(c.got)); v != c.ok {
			t.Errorf("%s: verdict %d (%s), want %d", c.name, v, why, c.ok)
		}
	}
}

func TestCheckQueryAgainstGroundTruth(t *testing.T) {
	g := enginetest.Metro()
	or := New(g)
	for _, op := range []oplog.Op{
		{Kind: oplog.Query, Subject: "Baq", Expr: "(l1|l2|l5)+"},
		{Kind: oplog.Query, Expr: "l1/^bus", Object: "BA"},
		{Kind: oplog.Query, Expr: "bus/l1*"},
		{Kind: oplog.Query, Subject: "Nowhere", Expr: "l1"},
	} {
		var got []Pair
		if s, known := or.node(op.Subject); known {
			o, _ := or.node(op.Object)
			for _, p := range enginetest.Oracle(g, s, mustParse(t, op.Expr), o) {
				got = append(got, Pair{g.Nodes.Name(p.S), g.Nodes.Name(p.O)})
			}
		}
		if v, why := or.CheckQuery(op, got, CheckBudget); v != OK {
			t.Errorf("%v: true answer rejected: %s", op, why)
		}
		if len(got) == 0 {
			continue
		}
		if v, _ := or.CheckQuery(op, got[1:], CheckBudget); v != Mismatch {
			t.Errorf("%v: answer with a pair missing accepted", op)
		}
		if v, _ := or.CheckQuery(op, append(got[1:], got[1]), CheckBudget); v != Mismatch {
			t.Errorf("%v: answer with a duplicate accepted", op)
		}
		if v, _ := or.CheckQuery(op, append(got[1:], Pair{"SA", "SA"}), CheckBudget); v != Mismatch {
			t.Errorf("%v: answer with a wrong pair accepted", op)
		}
	}
	if v, _ := or.CheckQuery(oplog.Op{Kind: oplog.Query, Subject: "Baq", Expr: "l1"}, nil, Budget{}); v != Skipped {
		t.Error("a spent budget must skip, not judge")
	}
}

func TestCheckSelect(t *testing.T) {
	or := New(enginetest.Metro())
	op := oplog.Op{Kind: oplog.Select, Pattern: "?x l1 ?y . ?y l2 ?z"}
	vars := []string{"x", "y", "z"}
	if v, why := or.CheckSelect(op, vars, [][]string{{"UCh", "LH", "SA"}}, CheckBudget); v != OK {
		t.Fatalf("true rows rejected: %s", why)
	}
	if v, _ := or.CheckSelect(op, vars, nil, CheckBudget); v != Mismatch {
		t.Fatal("missing row accepted")
	}
	if v, _ := or.CheckSelect(op, vars, [][]string{{"UCh", "LH", "SA"}, {"Baq", "UCh", "LH"}}, CheckBudget); v != Mismatch {
		t.Fatal("extra row accepted")
	}
	if v, _ := or.CheckSelect(op, []string{"y", "x", "z"}, [][]string{{"LH", "UCh", "SA"}}, CheckBudget); v != Mismatch {
		t.Fatal("reordered columns accepted")
	}
	// A constant, a path clause, and a variable bound by both clauses.
	op = oplog.Op{Kind: oplog.Select, Pattern: "BA bus ?x . ?x l1+ ?y"}
	want := [][]string{{"UCh", "Baq"}, {"UCh", "UCh"}, {"UCh", "LH"}}
	if v, why := or.CheckSelect(op, []string{"x", "y"}, want, CheckBudget); v != OK {
		t.Fatalf("true rows rejected: %s", why)
	}
}

func TestAffordableIsAWorkBound(t *testing.T) {
	or := New(enginetest.Metro())
	op := oplog.Op{Kind: oplog.Select, Pattern: "?x l1 ?y . ?y l1 ?z . ?z l1 ?w"}
	if !or.Affordable(op) {
		t.Fatal("a ten-edge graph must be affordable")
	}
	saved := AffordBudget
	defer func() { AffordBudget = saved }()
	AffordBudget.Work = 3
	if or.Affordable(op) {
		t.Fatal("three pairs of work cannot enumerate a three-clause chain")
	}
}

func TestEdgeSetReplay(t *testing.T) {
	es := NewEdgeSet(enginetest.Metro())
	bus := oplog.Triple{S: "SA", P: "bus", O: "UCh"}
	fresh := oplog.Triple{S: "UCh", P: "bus", O: "Newtown"}
	if !es.Has(bus) || es.Has(fresh) {
		t.Fatal("base edges wrong")
	}
	// Within one batch a delete wins over an add of the same edge.
	es.Apply([]oplog.Triple{fresh, {S: "LH", P: "bus", O: "Baq"}}, []oplog.Triple{bus, {S: "LH", P: "bus", O: "Baq"}})
	if es.Has(bus) || !es.Has(fresh) || es.Has(oplog.Triple{S: "LH", P: "bus", O: "Baq"}) {
		t.Fatal("replay wrong")
	}
	or := es.Oracle()
	op := oplog.Op{Kind: oplog.Query, Subject: "BA", Expr: "bus+"}
	if v, why := or.CheckQuery(op, []Pair{{"BA", "SA"}, {"BA", "UCh"}, {"BA", "Newtown"}}, CheckBudget); v != OK {
		t.Fatalf("state after replay: %s", why)
	}
	// A node outlives its last edge: rpqd keeps it in its dictionary,
	// and a nullable expression still pairs it with itself.
	es.Apply(nil, []oplog.Triple{fresh})
	if v, why := es.Oracle().CheckQuery(oplog.Op{Kind: oplog.Query, Subject: "Newtown", Expr: "bus*"}, []Pair{{"Newtown", "Newtown"}}, CheckBudget); v != OK {
		t.Fatalf("orphaned node: %s", why)
	}
	// An expression over a predicate whose last edge is gone still
	// resolves (to nothing).
	es.Apply(nil, []oplog.Triple{{S: "LH", P: "l2", O: "SA"}, {S: "SA", P: "l2", O: "LH"}})
	if v, why := es.Oracle().CheckQuery(oplog.Op{Kind: oplog.Query, Expr: "l2"}, nil, CheckBudget); v != OK {
		t.Fatalf("emptied predicate: %s", why)
	}
}

func mustParse(t *testing.T, expr string) pathexpr.Node {
	t.Helper()
	n, err := pathexpr.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
