package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ringrpq/internal/datagen"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/ltj"
	"ringrpq/internal/obs"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// This file is the property-based differential harness of the pattern
// executor: random graphs × random patterns, the pipelined LTJ+RPQ
// executor against a naive materialise-and-nested-loop-join oracle.
// The oracle shares no
// code with the executor: triple patterns scan the completed triple
// list and RPQ clauses use enginetest.Oracle's relational-algebra
// evaluator.

// oracleRelation materialises one clause as a list of partial bindings
// (variable → rendered name).
func oracleRelation(g *triples.Graph, c Clause) []binding {
	var out []binding
	nodeID := func(t Term) (uint32, bool) {
		id, ok := g.Nodes.Lookup(t.Name)
		return id, ok
	}
	if c.IsTriple() {
		var predID uint32
		hasPred := false
		if sym, ok := c.TripleSym(); ok {
			predID, hasPred = g.PredID(sym.Name, sym.Inverse)
			if !hasPred {
				return nil
			}
		}
		var sConst, oConst uint32
		if !c.S.IsVar() {
			var ok bool
			if sConst, ok = nodeID(c.S); !ok {
				return nil
			}
		}
		if !c.O.IsVar() {
			var ok bool
			if oConst, ok = nodeID(c.O); !ok {
				return nil
			}
		}
		for _, t := range g.Triples {
			if hasPred && t.P != predID {
				continue
			}
			if !c.S.IsVar() && t.S != sConst {
				continue
			}
			if !c.O.IsVar() && t.O != oConst {
				continue
			}
			if c.S.IsVar() && c.O.IsVar() && c.S.Var == c.O.Var && t.S != t.O {
				continue
			}
			b := binding{}
			if c.S.IsVar() {
				b[c.S.Var] = g.Nodes.Name(t.S)
			}
			if c.O.IsVar() {
				b[c.O.Var] = g.Nodes.Name(t.O)
			}
			if c.PredVar != "" {
				b[c.PredVar] = g.PredName(t.P)
			}
			out = append(out, b)
		}
		return dedupeBindings(out)
	}

	// RPQ clause via the relational-algebra oracle.
	sub, obj := int64(-1), int64(-1)
	if !c.S.IsVar() {
		id, ok := nodeID(c.S)
		if !ok {
			return nil
		}
		sub = int64(id)
	}
	if !c.O.IsVar() {
		id, ok := nodeID(c.O)
		if !ok {
			return nil
		}
		obj = int64(id)
	}
	for _, p := range enginetest.Oracle(g, sub, c.Path, obj) {
		if c.S.IsVar() && c.O.IsVar() && c.S.Var == c.O.Var && p.S != p.O {
			continue
		}
		b := binding{}
		if c.S.IsVar() {
			b[c.S.Var] = g.Nodes.Name(p.S)
		}
		if c.O.IsVar() {
			b[c.O.Var] = g.Nodes.Name(p.O)
		}
		out = append(out, b)
	}
	return dedupeBindings(out)
}

func dedupeBindings(bs []binding) []binding {
	seen := map[string]bool{}
	var out []binding
	for _, b := range bs {
		k := bindingKey(b)
		if !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

func bindingKey(b binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%d:%s=%d:%s;", len(k), k, len(b[k]), b[k])
	}
	return sb.String()
}

// oracleEval joins the clause relations by nested loops. The budget
// bounds merge attempts so pathological cross products are skipped
// rather than stalling the harness; false means the budget ran out.
func oracleEval(g *triples.Graph, q *Query, budget int) ([]binding, bool) {
	results := []binding{{}}
	for _, c := range q.Clauses {
		rel := oracleRelation(g, c)
		var next []binding
		for _, acc := range results {
			budget -= len(rel)
			if budget < 0 {
				return nil, false
			}
			for _, ext := range rel {
				merged, ok := mergeBindings(acc, ext)
				if ok {
					next = append(next, merged)
				}
			}
		}
		results = next
		if len(results) == 0 {
			break
		}
	}
	return dedupeBindings(results), true
}

func mergeBindings(a, b binding) (binding, bool) {
	out := make(binding, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if prev, ok := out[k]; ok && prev != v {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

func sortedKeys(bs []binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = bindingKey(b)
	}
	sort.Strings(out)
	return out
}

// handPatterns are grammar/shape corner cases run against every random
// graph on top of the generated workload; $a/$b are the graph's first
// two predicates, $n its first node.
var handPatterns = []string{
	"?x $a ?x",                       // triple self-loop
	"?x $a* ?x",                      // closure self-pairs
	"?x ?p ?y",                       // variable predicate
	"?x $a ?y . ?y ?p ?z",            // var predicate joined to a triple
	"?x $a/$b? ?y . ?y $b+ ?z",       // RPQ chained to RPQ
	"?x $a ?y . ?z $b ?w",            // disconnected product
	"?x ($a|^$b)+ ?y . ?y $a ?z",     // inverse inside closure
	"?x $a ?y . ?x $b* ?y",           // RPQ as pure existence filter
	"?x () ?y",                       // ε path clause
	"$n $a* ?y",                      // constant-subject closure
	"?x $a $n . ?x $b ?y",            // constant object in the BGP
	"?x $a ?y . ?y $b ?z",            // forward-only chain
	"?x $a ?y . ?x $b ?z . ?w $a ?x", // forward-only star
}

// instantiate fills the $a/$b/$n placeholders for a graph.
func instantiate(src string) string {
	src = strings.ReplaceAll(src, "$a", datagen.PredName(0))
	src = strings.ReplaceAll(src, "$b", datagen.PredName(1))
	return strings.ReplaceAll(src, "$n", datagen.NodeName(0))
}

// forEachOrder calls fn with every permutation of vars — or, past
// seven variables, with 5040 seeded shuffles of them.
func forEachOrder(vars []string, rng *rand.Rand, fn func(order []string)) {
	perm := append([]string(nil), vars...)
	if len(perm) > 7 {
		for i := 0; i < 5040; i++ {
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			fn(perm)
		}
		return
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			fn(perm)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// connectedOrder reports whether every variable after the first shares
// a pattern with an earlier one, i.e. the order never enumerates a
// cross product.
func connectedOrder(pats []ltj.Pattern, order []string) bool {
	bound := map[string]bool{order[0]: true}
	for _, v := range order[1:] {
		ok := false
		for _, p := range pats {
			if (p.S.Var == v || p.O.Var == v) && (bound[p.S.Var] || bound[p.O.Var]) {
				ok = true
			}
		}
		if !ok {
			return false
		}
		bound[v] = true
	}
	return true
}

// orderStats counts checkEveryOrder's work.
type orderStats struct{ orders, joins, flips int }

// checkEveryOrder takes the plan's constant-predicate BGP through every
// order of forEachOrder, oriented for it the way the planner would:
// each must be feasible, and forced through ltj.Options.Order must
// give the rows of the planner's own order. Up to four variables every
// order is joined; beyond, where an order that opens with unconnected
// variables enumerates their cross product, about fifty of the
// connected ones are.
func checkEveryOrder(t *testing.T, x *Exec, q *Query, src string, seed int64) (st orderStats) {
	t.Helper()
	r := x.r
	pl, _, err := x.planFor(q, time.Time{}, false)
	if err != nil || pl.Empty || len(pl.Triples) == 0 {
		return st
	}
	for _, tp := range pl.Triples {
		if tp.P.Var != "" {
			return st
		}
	}
	vars := ltj.Vars(pl.Triples)
	rowSet := func(pats []ltj.Pattern, order []string) []string {
		at := map[string]int{}
		for i, v := range order {
			at[v] = i
		}
		var rows []string
		if _, err := ltj.JoinWith(r, pats, ltj.Options{Order: order}, func(vals []uint32) bool {
			var sb strings.Builder
			for _, v := range vars {
				fmt.Fprintf(&sb, "%s=%d;", v, vals[at[v]])
			}
			rows = append(rows, sb.String())
			return true
		}); err != nil {
			t.Fatalf("pattern %q under order %v: %v", src, order, err)
		}
		sort.Strings(rows)
		return rows
	}
	want := rowSet(pl.Triples, pl.Order)
	total := 1
	for i := 2; i <= len(vars) && i <= 7; i++ {
		total *= i
	}
	rng := rand.New(rand.NewSource(seed))
	forEachOrder(vars, rng, func(order []string) {
		pats := append([]ltj.Pattern(nil), pl.Triples...)
		for _, f := range orient(x.g, r, pats, order) {
			if f {
				st.flips++
			}
		}
		if !ltj.Feasible(pats, order) {
			t.Fatalf("pattern %q: order %v is infeasible", src, order)
		}
		st.orders++
		if len(vars) > 4 && (rng.Intn(total/50+1) != 0 || !connectedOrder(pats, order)) {
			return
		}
		if got := rowSet(pats, order); !eqStrings(got, want) {
			t.Fatalf("pattern %q: order %v gives %d rows, the planner's %v gives %d",
				src, order, len(got), pl.Order, len(want))
		}
		st.joins++
	})
	return st
}

func TestDifferentialExecutorVsOracle(t *testing.T) {
	const graphs = 12
	var mu sync.Mutex
	casesRun := 0
	var orders, splitOrders orderStats
	rpqByClass := map[string]int{}
	for seed := int64(0); seed < graphs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("graph%d", seed), func(t *testing.T) {
			t.Parallel()
			g := datagen.Generate(datagen.Config{
				Seed:  seed + 100,
				Nodes: 12 + int(seed)*3,
				Edges: 30 + int(seed)*8,
				Preds: 3 + int(seed%4),
			})
			single := NewExec(g, ring.New(g, ring.WaveletMatrix))
			// A ring holding the forward half of the completed graph
			// only: on it the planner must decline every flip and
			// still answer.
			forward := *g
			forward.Triples = nil
			for _, tr := range g.Triples {
				if tr.P < g.NumPreds {
					forward.Triples = append(forward.Triples, tr)
				}
			}
			split := NewExec(g, ring.New(&forward, ring.WaveletMatrix))

			gen := workload.GeneratePatterns(g, workload.PatternConfig{Seed: seed, Total: 30})
			var texts []string
			rpqClass := map[string]string{}
			for _, pq := range gen {
				texts = append(texts, pq.Text)
				if pq.HasRPQ {
					rpqClass[pq.Text] = pq.Class
				}
			}
			for _, src := range handPatterns {
				texts = append(texts, instantiate(src))
			}

			type checked struct {
				src  string
				q    *Query
				want []string
			}
			var done []checked
			for _, src := range texts {
				q, err := Parse(src)
				if err != nil {
					t.Fatalf("parse %q: %v", src, err)
				}
				// Patterns whose nested-loop join explodes are skipped:
				// they validate nothing the bounded cases don't, and
				// enumerating millions of rows stalls the harness.
				oracle, ok := oracleEval(g, q, 200_000)
				if !ok {
					continue
				}
				want := sortedKeys(oracle)
				checkExecutors(t, []*Exec{single, split}, q, src, want, false)
				done = append(done, checked{src, q, want})

				o1 := checkEveryOrder(t, single, q, src, seed)
				var o3 orderStats
				if forwardOnly(q) {
					if o3 = checkEveryOrder(t, split, q, src, seed); o3.flips != 0 {
						t.Fatalf("pattern %q: %d flips taken on a ring without the inverse predicates", src, o3.flips)
					}
				}
				mu.Lock()
				casesRun++
				orders.orders += o1.orders
				orders.joins += o1.joins
				orders.flips += o1.flips
				splitOrders.orders += o3.orders
				splitOrders.joins += o3.joins
				if class, ok := rpqClass[src]; ok {
					rpqByClass[class]++
				}
				mu.Unlock()
			}
			// Second pass on the same executors: every plan is memoised
			// now, and a memo hit must answer what planning afresh did.
			for _, c := range done {
				checkExecutors(t, []*Exec{single, split}, c.q, c.src, c.want, true)
			}
		})
	}
	t.Cleanup(func() {
		if casesRun < 200 {
			t.Errorf("differential harness ran %d cases, want >= 200", casesRun)
		}
		t.Logf("%d cases; variable orders %+v, on the split ring %+v", casesRun, orders, splitOrders)
		if orders.joins < 2000 || orders.flips == 0 || splitOrders.joins < 100 {
			t.Errorf("forced too few variable orders: %+v, on the split ring %+v", orders, splitOrders)
		}
		for _, class := range []string{"star", "path", "hybrid"} {
			if rpqByClass[class] == 0 {
				t.Errorf("no RPQ-bearing %s pattern was exercised", class)
			}
		}
	})
}

// checkExecutors runs q on the single-ring and split-ring executors
// (in that order; the split ring only for forward-only BGPs) and checks
// each against the oracle's rows. With memoised set, every run must also find its plan in the memo.
func checkExecutors(t *testing.T, xs []*Exec, q *Query, src string, want []string, memoised bool) {
	t.Helper()
	for i, name := range []string{"single-ring", "split-ring"} {
		if name == "split-ring" && !forwardOnly(q) {
			continue
		}
		tr := obs.New()
		var got []binding
		err := runBindings(xs[i], q, Options{Trace: tr}, func(b binding) bool {
			got = append(got, b)
			return true
		})
		if err != nil {
			t.Fatalf("%s executor %q: %v", name, src, err)
		}
		if gotKeys := sortedKeys(got); !eqStrings(gotKeys, want) {
			t.Fatalf("pattern %q: %s executor %d rows, oracle %d rows\n got: %v\nwant: %v",
				src, name, len(gotKeys), len(want), gotKeys, want)
		}
		// Executor results are distinct by contract.
		if d := dedupeBindings(got); len(d) != len(got) {
			t.Fatalf("pattern %q: %s executor emitted duplicates", src, name)
		}
		if hit := planHit(tr); memoised && hit != 1 {
			t.Fatalf("pattern %q: %s executor's second run has plan hit=%d, want 1", src, name, hit)
		}
	}
}

// forwardOnly reports whether q is a BGP over forward constant
// predicates — the patterns a ring without the inverse half answers.
func forwardOnly(q *Query) bool {
	for _, c := range q.Clauses {
		sym, ok := c.TripleSym()
		if !ok || sym.Inverse {
			return false
		}
	}
	return true
}
