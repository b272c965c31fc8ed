package ringrpq

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"ringrpq/internal/overlay"
	"ringrpq/internal/ring"
	"ringrpq/internal/ring/ringtest"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// encodeRing is r's serialised form: equal bytes, equal rings.
func encodeRing(t testing.TB, r *ring.Ring) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	r.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rebuiltRing is the compaction's oracle: the base snapshot's ring
// decoded, less its tombstones, plus its adds, built anew by FromTriples.
func rebuiltRing(base *snapshot) *ring.Ring {
	dels := map[overlay.Edge]bool{}
	for _, e := range base.ov.Dels() {
		dels[e] = true
	}
	var ts []triples.Triple
	for _, tr := range ringtest.Triples(base.r) {
		if !dels[overlay.Edge(tr)] {
			ts = append(ts, tr)
		}
	}
	ts = append(ts, edgeTriples(base.ov.Adds())...)
	return ring.FromTriples(ts, base.numNodes, base.r.NumPreds)
}

// mixedUpdates returns the update batches of a mixed_rw-shaped stream
// over fg (seed 2), in stream order.
func mixedUpdates(fg *triples.Graph, batches int) [][2][]Triple {
	var out [][2][]Triple
	conv := func(us []workload.UpdateTriple) []Triple {
		ts := make([]Triple, len(us))
		for i, u := range us {
			ts[i] = Triple{u.S, u.P, u.O}
		}
		return ts
	}
	for _, op := range workload.GenerateMixed(fg, workload.MixedConfig{Seed: 2, Total: 5 * batches}) {
		if op.IsUpdate() {
			out = append(out, [2][]Triple{conv(op.Adds), conv(op.Dels)})
		}
	}
	return out[:batches]
}

// Every compaction merges the overlay into the ring, and the merged
// ring is the one a rebuild from the decoded triples makes, byte for
// byte: g100k under 200 mixed update batches, compacting at 1000
// overlay edges in the background as rpqd does.
func TestUpdateCompactionMergeEqualsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 150 k-triple g100k database")
	}
	nt, fg, _ := g100k(t)
	db := buildNT(t, nt)
	db.SetCompactionThreshold(1000)
	var bases []*snapshot
	var merged []*ring.Ring
	compactStageHook = func(stage string) {
		switch stage {
		case "base-selected":
			bases = append(bases, db.h.cur.Load())
		case "swapped":
			merged = append(merged, db.h.cur.Load().r)
		}
	}
	defer func() { compactStageHook = nil }()
	ctx := context.Background()
	for _, u := range mixedUpdates(fg, 200) {
		if _, err := db.Apply(ctx, u[0], u[1]); err != nil {
			t.Fatal(err)
		}
		// One compaction at a time, with no Apply racing it, so the
		// snapshot the hook sees at "base-selected" is the base.
		for db.h.compacting.Load() {
			runtime.Gosched()
		}
	}
	if len(merged) < 3 || len(merged) != len(bases) {
		t.Fatalf("%d compactions swapped, %d based: want the same number, at least 3", len(merged), len(bases))
	}
	for i, base := range bases {
		if !bytes.Equal(encodeRing(t, merged[i]), encodeRing(t, rebuiltRing(base))) {
			t.Fatalf("compaction %d (%d overlay edges over %d triples): merged ring differs from the rebuild",
				i, base.ov.Weight(), base.r.N)
		}
	}
	t.Logf("%d compactions, each byte-identical to its rebuild", len(merged))
}

// The kernel carries each tombstone's leaf rank across overlay versions
// instead of probing every tombstone again per version: g100k under 200
// mixed update batches (seed 2), compacting at 1000 overlay edges in
// the background, so the run crosses several swaps. After every batch
// the carried ranks for the pinned snapshot equal a fresh
// Ls.Rank(s, lsB) per tombstone, and two-step queries that run through
// the batched part 2 over the stream's deleted edges answer as a
// map-of-edges oracle does.
func TestUpdateCarriedTombstoneRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 150 k-triple g100k database")
	}
	nt, fg, _ := g100k(t)
	db := buildNT(t, nt)
	db.SetCompactionThreshold(1000)
	batches := mixedUpdates(fg, 200)

	oracle := hopOracle{out: map[string]map[string]map[string]bool{}, in: map[string]map[string]map[string]bool{}}
	for _, tr := range fg.Triples {
		if tr.P < fg.NumPreds {
			oracle.add(Triple{fg.Nodes.Name(tr.S), fg.Preds.Name(tr.P), fg.Nodes.Name(tr.O)})
		}
	}
	// The sample: for a deleted edge (s, p, m), (c, !P0/p, ?y) from an
	// in-neighbour c of s and (?x, p/!P0, o) into an out-neighbour o of
	// m, each picked with at least four neighbours on the near side, so
	// that the step over p is a batched level.
	type sample struct{ subject, expr, object string }
	var queries []sample
	// pick returns the neighbour of n in adj, over every predicate but
	// P0, with the fewest (but at least four) neighbours in far.
	pick := func(adj map[string]map[string]map[string]bool, n string, far map[string]map[string]map[string]bool) string {
		best, bestDeg := "", 0
		for p, ms := range adj[n] {
			for m := range ms {
				if d := degree(far, m); p != "P0" && d >= 4 && (best == "" || d < bestDeg || d == bestDeg && m < best) {
					best, bestDeg = m, d
				}
			}
		}
		return best
	}
	for _, u := range batches {
		for _, d := range u[1] {
			if len(queries) >= 24 || d.Predicate == "P0" {
				continue
			}
			if c := pick(oracle.in, d.Subject, oracle.out); c != "" {
				queries = append(queries, sample{c, "!P0/" + d.Predicate, "?y"})
			}
			if o := pick(oracle.out, d.Object, oracle.in); o != "" {
				queries = append(queries, sample{"?x", d.Predicate + "/!P0", o})
			}
		}
	}
	if len(queries) < 16 {
		t.Fatalf("only %d sample queries", len(queries))
	}

	ctx := context.Background()
	probed := 0
	for i, u := range batches {
		if _, err := db.Apply(ctx, u[0], u[1]); err != nil {
			t.Fatal(err)
		}
		oracle.apply(u[0], u[1])

		snap := db.h.acquire()
		dels := snap.ov.Dels()
		got := db.evaluatorFor(snap).TombstoneRanks(0)
		r := snap.r
		for k, d := range dels {
			want := -1
			if int(d.O) < r.NumNodes && d.P < r.NumPreds {
				b, e := r.ObjectRange(d.O)
				lsB, lsE := r.BackwardByPred(b, e, d.P)
				if r0 := r.Ls.Rank(d.S, lsB); r.Ls.Rank(d.S, lsE) != r0 {
					want = r0
				}
			}
			if got[k] != want {
				db.h.release(snap)
				t.Fatalf("batch %d, tombstone %v: carried rank %d, fresh %d", i, d, got[k], want)
			}
		}
		probed += len(dels)
		db.h.release(snap)

		for _, q := range queries {
			sols, err := db.Query(ctx, q.subject, q.expr, q.object)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedPairs(sols), oracle.twoHop(q.subject, q.expr, q.object); !equalPairs(got, want) {
				t.Fatalf("batch %d: (%s, %s, %s) = %v, oracle %v", i, q.subject, q.expr, q.object, got, want)
			}
		}
	}
	if epoch := db.Stats().Updates.Epoch; epoch < 3 {
		t.Fatalf("%d compactions swapped, want at least 3", epoch)
	}
	t.Logf("%d sample queries, %d tombstone ranks checked over %d batches", len(queries), probed, len(batches))
}

// hopOracle is a map-of-edges ground truth indexed both ways, for
// two-step paths of one step over every predicate but P0 and one over a
// named predicate.
type hopOracle struct {
	out, in map[string]map[string]map[string]bool // node → predicate → neighbours
}

func (o hopOracle) add(t Triple) {
	link := func(m map[string]map[string]map[string]bool, from, pred, to string) {
		if m[from] == nil {
			m[from] = map[string]map[string]bool{}
		}
		if m[from][pred] == nil {
			m[from][pred] = map[string]bool{}
		}
		m[from][pred][to] = true
	}
	link(o.out, t.Subject, t.Predicate, t.Object)
	link(o.in, t.Object, t.Predicate, t.Subject)
}

func (o hopOracle) apply(adds, dels []Triple) {
	for _, t := range adds {
		o.add(t)
	}
	for _, t := range dels {
		delete(o.out[t.Subject][t.Predicate], t.Object)
		delete(o.in[t.Object][t.Predicate], t.Subject)
	}
}

// degree counts n's neighbours in adj over every predicate but P0.
func degree(adj map[string]map[string]map[string]bool, n string) int {
	d := 0
	for p, ns := range adj[n] {
		if p != "P0" {
			d += len(ns)
		}
	}
	return d
}

// twoHop answers (c, !P0/p, ?y) or (?x, p/!P0, c), as sortedPairs
// renders solutions.
func (o hopOracle) twoHop(subject, expr, object string) []string {
	forward := !isVariable(subject)
	adj, from, p := o.out, subject, strings.TrimPrefix(expr, "!P0/")
	if !forward {
		adj, from, p = o.in, object, strings.TrimSuffix(expr, "/!P0")
	}
	seen := map[string]bool{}
	var out []string
	for q, ms := range adj[from] {
		if q == "P0" {
			continue
		}
		for m := range ms {
			for n := range adj[m][p] {
				if seen[n] {
					continue
				}
				seen[n] = true
				if forward {
					out = append(out, from+"→"+n)
				} else {
					out = append(out, n+"→"+from)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// A compaction's residual overlay is the difference between what the
// merged ring holds and what the data is at the swap. Batches applied
// at "rebuilt" (before the residual is taken outside the lock) and at
// "residual" (after it, so the swap must take it again under the lock)
// re-add a triple the base deleted, delete a triple the base added,
// add a triple on a node interned after the base and delete a static
// triple. The swapped overlay must hold exactly the completed edges the
// data has and the merged ring lacks as adds, and the reverse as
// tombstones, and every answer must equal the oracle's, before the
// swap, after it and after the next compaction.
func TestUpdateCompactionResidual(t *testing.T) {
	preds := []string{"pa", "pb", "pc"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nodes []string
		for i := 0; i < 10; i++ {
			nodes = append(nodes, fmt.Sprintf("n%02d", i))
		}
		random := func() Triple {
			return Triple{nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))]}
		}
		b := NewBuilder()
		oracle := oracleEdges{}
		for i := 0; i < 40; i++ {
			tr := random()
			b.Add(tr.Subject, tr.Predicate, tr.Object)
			oracle[[3]string{tr.Subject, tr.Predicate, tr.Object}] = true
		}
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		db.SetCompactionThreshold(-1)
		ctx := context.Background()
		apply := func(adds, dels []Triple) {
			t.Helper()
			if _, err := db.Apply(ctx, adds, dels); err != nil {
				t.Fatal(err)
			}
			oracle.apply(adds, dels)
		}
		check := func(when string) {
			t.Helper()
			for _, s := range nodes {
				for _, p := range preds {
					for _, inverse := range []bool{false, true} {
						expr := p
						if inverse {
							expr = "^" + p
						}
						sols, err := db.Query(ctx, s, expr, "?x")
						if err != nil {
							t.Fatal(err)
						}
						if got, want := sortedPairs(sols), oracle.query(s, p, inverse); !equalPairs(got, want) {
							t.Fatalf("seed %d, %s: (%s, %s, ?x) = %v, oracle %v", seed, when, s, expr, got, want)
						}
					}
				}
			}
		}

		// The base overlay: three static triples deleted, three new
		// ones added.
		var static []Triple
		for e := range oracle {
			static = append(static, Triple{e[0], e[1], e[2]})
		}
		sort.Slice(static, func(i, j int) bool { return fmt.Sprint(static[i]) < fmt.Sprint(static[j]) })
		rng.Shuffle(len(static), func(i, j int) { static[i], static[j] = static[j], static[i] })
		baseDels, staticKept := static[:3], static[3:]
		var baseAdds []Triple
		for len(baseAdds) < 3 {
			if tr := random(); !oracle[[3]string{tr.Subject, tr.Predicate, tr.Object}] && !slices.Contains(baseAdds, tr) {
				baseAdds = append(baseAdds, tr)
			}
		}
		apply(baseAdds, baseDels)

		// The four cases, once per stage, each on triples of its own.
		type cases struct{ readd, undo, fresh, delStatic Triple }
		at := map[string]cases{}
		for i, stage := range []string{"rebuilt", "residual"} {
			at[stage] = cases{
				readd:     baseDels[i],
				undo:      baseAdds[i],
				fresh:     Triple{nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], "fresh-" + stage},
				delStatic: staticKept[i],
			}
		}
		var swapped *snapshot
		compactStageHook = func(stage string) {
			if c, ok := at[stage]; ok {
				apply([]Triple{c.readd, c.fresh, random()}, []Triple{c.undo, c.delStatic, random()})
				check("at " + stage)
			}
			if stage == "swapped" {
				swapped = db.h.cur.Load()
			}
		}
		err = db.Flush()
		compactStageHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if swapped == nil || swapped != db.h.cur.Load() {
			t.Fatalf("seed %d: no swap, or a snapshot published after it", seed)
		}
		check("after the swap")

		// The residual by its definition, over completed edge ids.
		edgeOf := func(e [3]string) (overlay.Edge, bool) {
			s, ok1 := db.g.Nodes.Lookup(e[0])
			p, ok2 := db.g.Preds.Lookup(e[1])
			o, ok3 := db.g.Nodes.Lookup(e[2])
			return overlay.Edge{S: s, P: p, O: o}, ok1 && ok2 && ok3
		}
		data := map[overlay.Edge]bool{}
		for e := range oracle {
			ed, ok := edgeOf(e)
			if !ok {
				t.Fatalf("seed %d: %v not in the dictionary", seed, e)
			}
			data[ed] = true
			data[overlay.Edge{S: ed.O, P: ed.P + db.g.NumPreds, O: ed.S}] = true
		}
		merged := map[overlay.Edge]bool{}
		for _, tr := range ringtest.Triples(swapped.r) {
			merged[overlay.Edge(tr)] = true
		}
		wantAdds, wantDels := map[overlay.Edge]bool{}, map[overlay.Edge]bool{}
		for e := range data {
			if !merged[e] {
				wantAdds[e] = true
			}
		}
		for e := range merged {
			if !data[e] {
				wantDels[e] = true
			}
		}
		asSet := func(es []overlay.Edge) map[overlay.Edge]bool {
			m := map[overlay.Edge]bool{}
			for _, e := range es {
				m[e] = true
			}
			if len(m) != len(es) {
				t.Fatalf("seed %d: duplicate edges in %v", seed, es)
			}
			return m
		}
		if got := asSet(swapped.ov.Adds()); !maps.Equal(got, wantAdds) {
			t.Fatalf("seed %d: residual adds %v, want %v", seed, swapped.ov.Adds(), wantAdds)
		}
		if got := asSet(swapped.ov.Dels()); !maps.Equal(got, wantDels) {
			t.Fatalf("seed %d: residual tombstones %v, want %v", seed, swapped.ov.Dels(), wantDels)
		}
		// Each case reached the residual as the side it belongs on (the
		// random triples of a batch may have undone one of them).
		for _, c := range at {
			for _, want := range []struct {
				tr   Triple
				adds bool
			}{{c.readd, true}, {c.fresh, true}, {c.undo, false}, {c.delStatic, false}} {
				e, ok := edgeOf([3]string{want.tr.Subject, want.tr.Predicate, want.tr.Object})
				if !ok || data[e] != want.adds {
					continue
				}
				if inAdds := swapped.ov.Has(e); inAdds != want.adds || swapped.ov.Deleted(e) == want.adds {
					t.Fatalf("seed %d: %v is not a residual %s", seed, want.tr, map[bool]string{true: "add", false: "tombstone"}[want.adds])
				}
			}
		}

		// The next compaction merges the residual in.
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if !db.h.cur.Load().ov.Empty() {
			t.Fatalf("seed %d: overlay not empty after the second compaction", seed)
		}
		check("after the next compaction")
	}
}
