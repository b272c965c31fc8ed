package oplog

import (
	"bytes"
	"encoding/json"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

func graph() *triples.Graph {
	return datagen.Generate(datagen.Config{Seed: 1, Nodes: 600, Edges: 4000, Preds: 12})
}

// The same seed must draw the same log, a different seed another one:
// the SHA in a row's provenance is only worth something if it pins the
// work.
func TestLogsAreDeterministic(t *testing.T) {
	g := graph()
	keep := func(Op) bool { return true }
	logs := map[string]func(seed int64) []Op{
		"distinct": func(seed int64) []Op { return Distinct(g, seed, 200) },
		"pool":     func(seed int64) []Op { return FromPool(g, 1, seed, 250, 200) },
		"zipf":     func(seed int64) []Op { return Zipf(g, seed, 50, 400, 1.1) },
		"patterns": func(seed int64) []Op { return Patterns(g, 1, seed, 90, keep)[:60] },
		"mixed":    func(seed int64) []Op { return Mixed(g, seed, MixedConfig{Total: 300, WriteRatio: 0.1}) },
	}
	for name, gen := range logs {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 {
			t.Errorf("%s: empty log", name)
		}
		if SHA(a) != SHA(b) {
			t.Errorf("%s: one seed drew two logs", name)
		}
		if SHA(a) == SHA(c) {
			t.Errorf("%s: two seeds drew one log", name)
		}
	}
}

// Every seed draws from the one pool: same ops, another order.
func TestPatternsShareAPool(t *testing.T) {
	g := graph()
	count := func(ops []Op) map[string]int {
		m := map[string]int{}
		for _, op := range ops {
			m[op.Pattern]++
		}
		return m
	}
	a, b := Patterns(g, 1, 7, 90, func(Op) bool { return true }), Patterns(g, 1, 8, 90, func(Op) bool { return true })
	if len(a) != 90 || len(b) != 90 {
		t.Fatalf("pools of %d and %d, want 90", len(a), len(b))
	}
	ca, cb := count(a), count(b)
	for p, n := range ca {
		if cb[p] != n {
			t.Fatalf("pattern %q is in one seed's pool only", p)
		}
	}
	qa, qb := FromPool(g, 1, 7, 250, 200), FromPool(g, 1, 8, 250, 200)
	shared := 0
	for _, op := range qb {
		for _, other := range qa {
			if op.Expr == other.Expr && op.Subject == other.Subject && op.Object == other.Object {
				shared++
				break
			}
		}
	}
	if len(qa) != 200 || shared < 140 || shared == 200 {
		t.Fatalf("two seeds share %d of %d pooled queries", shared, len(qa))
	}
	odd := Patterns(g, 1, 7, 90, func(op Op) bool { return op.Class != "hybrid" })
	if len(odd) != 60 {
		t.Fatalf("filter kept %d of 90, want the 60 that are not hybrids", len(odd))
	}
}

// A pattern on the frozen list enters no pool; and the list is not
// stale: the generator still emits every pattern on it for the
// benchmark's graph and pool seed, or it would exclude nothing.
func TestPatternsLeaveOutTheFrozenList(t *testing.T) {
	g, all := graph(), func(Op) bool { return true }
	victim := Patterns(g, 1, 7, 90, all)[0].Pattern
	plannerPathological[victim] = true
	defer delete(plannerPathological, victim)
	pool := Patterns(g, 1, 7, 90, all)
	if len(pool) != 89 {
		t.Fatalf("pool of %d, want 89", len(pool))
	}
	for _, op := range pool {
		if op.Pattern == victim {
			t.Fatal("a listed pattern is in the pool")
		}
	}

	emitted := map[string]bool{}
	// The harness loads the graph back from the file rpqd is given, which
	// numbers the nodes in file order: so does this.
	var file bytes.Buffer
	if err := triples.Dump(&file, datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60})); err != nil {
		t.Fatal(err)
	}
	b := triples.NewBuilder()
	if err := triples.Load(&file, b); err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.GeneratePatterns(b.Build(), workload.PatternConfig{Seed: 1, Total: 2000}) {
		emitted[p.Text] = true
	}
	for p := range plannerPathological {
		if p != victim && !emitted[p] {
			t.Errorf("listed pattern %q is not among pattern_select's candidates", p)
		}
	}
}

func TestDistinctHasNoRepeats(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range Distinct(graph(), 3, 200) {
		key := string(op.Body(false))
		if seen[key] {
			t.Fatalf("repeated op %s", key)
		}
		seen[key] = true
	}
}

func TestZipfStaysInPool(t *testing.T) {
	distinct := map[string]int{}
	ops := Zipf(graph(), 3, 50, 2000, 1.1)
	for _, op := range ops {
		distinct[string(op.Body(false))]++
	}
	if len(distinct) > 50 || len(distinct) < 10 {
		t.Fatalf("%d distinct ops from a pool of 50", len(distinct))
	}
	top := 0
	for _, n := range distinct {
		top = max(top, n)
	}
	if top < len(ops)/10 {
		t.Fatalf("most popular op has %d of %d draws: not skewed", top, len(ops))
	}
}

func TestMixedShape(t *testing.T) {
	ops := Mixed(graph(), 5, MixedConfig{Total: 500, WriteRatio: 0.1})
	writes := 0
	for _, op := range ops {
		if op.Kind == Update {
			writes++
			if len(op.Adds)+len(op.Dels) != 16 {
				t.Fatalf("batch of %d edges, want 16", len(op.Adds)+len(op.Dels))
			}
		}
	}
	if len(ops) != 500 || writes != 50 {
		t.Fatalf("%d ops, %d writes; want 500 and 50", len(ops), writes)
	}
}

func TestBodies(t *testing.T) {
	q := Op{Kind: Query, Subject: "Q1", Expr: "P1/P2*"}
	var got map[string]any
	if err := json.Unmarshal(q.Body(true), &got); err != nil {
		t.Fatal(err)
	}
	if got["subject"] != "Q1" || got["object"] != "" || got["limit"] != float64(Limit) || got["timeout"] != Timeout || got["profile"] != true {
		t.Fatalf("query body %v", got)
	}
	if bytes.Contains(q.Body(false), []byte("profile")) {
		t.Fatal("an untraced body must not mention profile")
	}
	u := Op{Kind: Update, Adds: []Triple{{"a", "p", "b"}}}
	if string(u.Body(true)) != `{"add":[{"s":"a","p":"p","o":"b"}]}` {
		t.Fatalf("update body %s", u.Body(true))
	}
}
