// Benchmarks regenerating the paper's evaluation (§5). Each table and
// figure has a bench target, and this file is their one home. The
// comparison runs on what Build builds: the ring of a built database
// and, over the same locality-numbered triples, the comparison arms of
// internal/baseline (navigational BFS, ALP and relational).
//
//	Table 1  → BenchmarkTable1Workload
//	Table 2  → BenchmarkTable2 (sub-benchmarks per system, one op one
//	           query of the log; space is reported as bytes/edge, and
//	           timeouts as a count): `make paper` runs all four arms
//	Fig. 8   → BenchmarkFig8 (sub-benchmarks per pattern and system)
//	§5 index construction → BenchmarkRingConstruction, and a whole
//	           database's Load + Build → BenchmarkBuild
//	§4 traversal work of a built database → BenchmarkWorkLog
//	a compaction of a built database's overlay → BenchmarkCompaction
//	Design-choice ablations (§4/§6) → BenchmarkAblation*
package ringrpq

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"ringrpq/internal/baseline/alp"
	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/baseline/relational"
	"ringrpq/internal/core"
	"ringrpq/internal/datagen"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/ring/ringtest"
	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
	"ringrpq/internal/workload"
)

// system is one arm of the paper's comparison: its index bytes and an
// evaluator that reports whether the timeout fired.
type system struct {
	name  string
	bytes int
	eval  func(q core.Query, limit int, timeout time.Duration, emit func(s, o uint32) bool) (timedOut bool, err error)
}

// paperSystems builds g's dump through Build and returns the database's
// completed graph with the triples its ring holds (Build's numbering),
// the ring, and the four systems over them: the ring, NavBFS, ALP and
// relational.
func paperSystems(t testing.TB, g *triples.Graph) (*triples.Graph, *ring.Ring, []system) {
	t.Helper()
	db := buildNT(t, dumpNT(t, g))
	r := db.h.cur.Load().r
	lg := *db.g
	lg.Triples = ringtest.Triples(r)
	eng := newEngine(db.g, r)
	nb, ja, vr := bfs.New(&lg), alp.New(&lg), relational.New(&lg)
	timedOut := func(err, errTimeout error) (bool, error) {
		if errors.Is(err, errTimeout) {
			return true, nil
		}
		return false, err
	}
	return &lg, r, []system{
		{"Ring", r.QuerySizeBytes(), func(q core.Query, limit int, timeout time.Duration, emit func(s, o uint32) bool) (bool, error) {
			_, err := eng.Eval(context.Background(), q, core.Options{Limit: limit, Timeout: timeout}, emit)
			return timedOut(err, core.ErrTimeout)
		}},
		{"NavBFS", nb.SizeBytes(), func(q core.Query, limit int, timeout time.Duration, emit func(s, o uint32) bool) (bool, error) {
			return timedOut(nb.Eval(q.Subject, q.Expr, q.Object, bfs.Options{Limit: limit, Timeout: timeout}, emit), bfs.ErrTimeout)
		}},
		{"ALP", ja.SizeBytes(), func(q core.Query, limit int, timeout time.Duration, emit func(s, o uint32) bool) (bool, error) {
			return timedOut(ja.Eval(q.Subject, q.Expr, q.Object, alp.Options{Limit: limit, Timeout: timeout}, emit), alp.ErrTimeout)
		}},
		{"Relational", vr.SizeBytes(), func(q core.Query, limit int, timeout time.Duration, emit func(s, o uint32) bool) (bool, error) {
			return timedOut(vr.Eval(q.Subject, q.Expr, q.Object, relational.Options{Limit: limit, Timeout: timeout}, emit), relational.ErrTimeout)
		}},
	}
}

// solutions returns the sorted, deduplicated (s,o) pairs, as s<<32|o,
// that sys finds for q with no limit, failing on an error or a timeout.
func solutions(t *testing.T, sys system, q core.Query) []uint64 {
	t.Helper()
	var out []uint64
	timedOut, err := sys.eval(q, 0, 30*time.Second, func(s, o uint32) bool {
		out = append(out, uint64(s)<<32|uint64(o))
		return true
	})
	if err != nil || timedOut {
		t.Fatalf("%s on %v: timeout=%v err=%v", sys.name, q, timedOut, err)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// The comparison is meaningless unless the four systems agree: over a
// small built graph, every query of a Table-1 log has the same solution
// set on each.
func TestSystemsAgreeOnSets(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: 4, Nodes: 300, Edges: 1200, Preds: 12})
	lg, _, systems := paperSystems(t, g)
	qs := workload.Generate(g, workload.Config{Seed: 6, Total: 60})
	if len(qs) < 50 {
		t.Fatalf("the log has %d queries, want at least 50", len(qs))
	}
	for _, q := range qs {
		lq := logQuery(t, lg, q)
		want := solutions(t, systems[0], lq)
		for _, sys := range systems[1:] {
			if got := solutions(t, sys, lq); !slices.Equal(got, want) {
				t.Fatalf("%s on %s: %d solutions, %s has %d", sys.name, q, len(got), systems[0].name, len(want))
			}
		}
	}
}

// The paper's headline space claim (3–5× smaller): the ring Build
// builds needs fewer bytes per triple than each other arm's index.
func TestSpaceShape(t *testing.T) {
	g, _, systems := paperSystems(t, datagen.Generate(datagen.Config{Seed: 4, Nodes: 300, Edges: 1200, Preds: 12}))
	perTriple := func(sys system) float64 { return float64(sys.bytes) / float64(g.Len()) }
	for _, sys := range systems[1:] {
		if perTriple(systems[0]) >= perTriple(sys) {
			t.Errorf("ring (%.2f B/triple) not smaller than %s (%.2f B/triple)", perTriple(systems[0]), sys.name, perTriple(sys))
		}
	}
	for _, sys := range systems {
		t.Logf("%s: %.2f B/triple", sys.name, perTriple(sys))
	}
}

// table2Graph is the benchmark fixture's graph.
var table2Graph = datagen.Config{Seed: 1, Nodes: 3000, Edges: 15000, Preds: 30}

// The benchmark fixture: one synthetic Wikidata-shaped graph built
// through Build, and a query log shared by every bench, built lazily.
// The log is generated over the graph in datagen's numbering and
// resolved by name in Build's.
var bench struct {
	once    sync.Once
	gen     *triples.Graph // datagen's numbering
	g       *triples.Graph // Build's numbering, with the ring's triples
	r       *ring.Ring
	systems []system
	qs      []workload.Query
	log     []core.Query // qs in Build's numbering
	byPat   map[string][]core.Query
	timeout time.Duration
	limit   int
}

func setup(b *testing.B) {
	b.Helper()
	bench.once.Do(func() {
		bench.gen = datagen.Generate(table2Graph)
		bench.qs = workload.Generate(bench.gen, workload.Config{Seed: 2, Total: 120})
		bench.g, bench.r, bench.systems = paperSystems(b, bench.gen)
		bench.byPat = map[string][]core.Query{}
		for _, q := range bench.qs {
			lq := logQuery(b, bench.g, q)
			bench.log = append(bench.log, lq)
			p := workload.Classify(q)
			bench.byPat[p] = append(bench.byPat[p], lq)
		}
		bench.timeout = 2 * time.Second
		bench.limit = 100000
	})
}

// BenchmarkTable1Workload measures query-log generation with the Table 1
// pattern mix (and exercises the classifier round trip).
func BenchmarkTable1Workload(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs := workload.Generate(bench.gen, workload.Config{Seed: int64(i), Total: 100})
		if len(workload.CountPatterns(qs)) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkTable2 regenerates the query-time rows of Table 2: one op
// is one query of the log, at limit 100 000 and a 2 s timeout. The log
// holds 112 queries (Generate rounds each pattern's share of 120
// down), so -benchtime 120x is one pass and the first eight again.
func BenchmarkTable2(b *testing.B) {
	setup(b)
	emit := func(uint32, uint32) bool { return true }
	for _, sys := range bench.systems {
		b.Run(sys.name, func(b *testing.B) {
			timeouts := 0
			for i := 0; i < b.N; i++ {
				timedOut, err := sys.eval(bench.log[i%len(bench.log)], bench.limit, bench.timeout, emit)
				if err != nil {
					b.Fatal(err)
				}
				if timedOut {
					timeouts++
				}
			}
			b.ReportMetric(float64(sys.bytes)/float64(bench.g.Len()), "bytes/edge")
			b.ReportMetric(float64(timeouts), "timeouts")
		})
	}
}

// BenchmarkFig8 regenerates the per-pattern distributions of Fig. 8:
// one sub-benchmark per (pattern, system).
func BenchmarkFig8(b *testing.B) {
	setup(b)
	emit := func(uint32, uint32) bool { return true }
	for _, pf := range workload.Table1 {
		qs := bench.byPat[pf.Pattern]
		if len(qs) == 0 {
			continue
		}
		b.Run(pf.Pattern, func(b *testing.B) {
			for _, sys := range bench.systems {
				b.Run(sys.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := sys.eval(qs[i%len(qs)], bench.limit, bench.timeout, emit); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkRingConstruction measures index build time and size (§5:
// "Our index is constructed in 2.3 hours" at Wikidata scale): the
// ring.FromTriples call Build makes, over the graph Build numbered.
func BenchmarkRingConstruction(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ring.FromTriples(slices.Clone(bench.g.Triples), bench.g.NumNodes(), bench.g.NumCompletedPreds())
		if i == 0 {
			b.ReportMetric(float64(r.QuerySizeBytes())/float64(bench.g.Len()), "bytes/edge")
		}
	}
}

// BenchmarkBuild measures what a fresh database costs: Load of a
// g100k-shaped graph's triple file (datagen seed 1, 20 000 nodes,
// 100 000 edge draws, 60 predicates, about 150 k completed triples),
// then Build, which completes the graph, numbers its nodes for
// locality and builds the ring.
func BenchmarkBuild(b *testing.B) {
	var nt bytes.Buffer
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60})
	if err := triples.Dump(&nt, g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder()
		if err := bl.Load(bytes.NewReader(nt.Bytes())); err != nil {
			b.Fatal(err)
		}
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompaction times one compaction of the g100k database
// (about 150 k completed triples) holding a 1000-edge overlay: Flush
// merges the overlay into the ring and swaps the result in. The
// overlay is the first update batches of a mixed stream (seed 2) and,
// every other iteration, their inverse, so the ring alternates between
// two states. It reports the overlay's weight, completed adds plus
// tombstones, as edits/op; paired runs of two commits (-count 10 each,
// alternating) size a compactor change without the HTTP benchmark.
func BenchmarkCompaction(b *testing.B) {
	nt, fg, _ := g100k(b)
	db := buildNT(b, nt)
	db.SetCompactionThreshold(-1)
	var adds, dels []Triple
	for _, u := range mixedUpdates(fg, 200) {
		if len(adds)+len(dels) >= 500 {
			break
		}
		adds, dels = append(adds, u[0]...), append(dels, u[1]...)
	}
	ctx := context.Background()
	edits := 0
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		if i%2 == 1 {
			adds, dels = dels, adds
		}
		st, err := db.Apply(ctx, adds, dels)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 1 {
			adds, dels = dels, adds
		}
		edits += st.OverlayEdges + st.Tombstones
		b.StartTimer()
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(edits)/float64(b.N), "edits/op")
}

// BenchmarkWorkLog times TestWorkCeilings' log, the g100k Table-1
// queries at the benchmark's limit of 1000, through a built database's
// kernel: one op is one pass over the 289 queries. It reports the
// wavelet visits per pass, which a change to the descent alone must
// leave as they are; paired runs of two commits (-count 10 each,
// alternating) size such a change without the HTTP benchmark.
func BenchmarkWorkLog(b *testing.B) {
	nt, _, qs := g100k(b)
	db := buildNT(b, nt)
	eng := newEngine(db.g, db.h.cur.Load().r)
	log := make([]core.Query, len(qs))
	for i, q := range qs {
		log[i] = logQuery(b, db.g, q)
	}
	emit := func(uint32, uint32) bool { return true }
	visits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visits = 0
		for _, q := range log {
			st, err := eng.Eval(context.Background(), q, core.Options{Limit: 1000}, emit)
			if err != nil {
				b.Fatal(err)
			}
			visits += st.WaveletVisits
		}
	}
	b.ReportMetric(float64(visits), "visits/op")
}

// BenchmarkVersionedReads is mixed_rw's read path in process: the g100k
// Table-1 log at the benchmark's limit of 1000 through a built
// database, with one 16-edge update batch of a mixed stream (seed 2)
// applied before each read, so that every read sees a new overlay
// version, and compaction at 1000 overlay edges in the background, as
// mixed_rw runs rpqd. One op is one pass over the 289 queries; every
// other pass applies the batches' inverses, so the data alternates
// between two states. Paired runs of two commits (-count 10 each,
// alternating) size a change to the versioned read path without the
// HTTP benchmark.
func BenchmarkVersionedReads(b *testing.B) {
	nt, fg, qs := g100k(b)
	db := buildNT(b, nt)
	db.SetCompactionThreshold(1000)
	batches := mixedUpdates(fg, len(qs))
	endpoint := func(name, variable string) string {
		if name == "" {
			return variable
		}
		return name
	}
	ctx := context.Background()
	emit := func(Solution) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, q := range qs {
			adds, dels := batches[k][0], batches[k][1]
			if i%2 == 1 {
				adds, dels = dels, adds
			}
			if _, err := db.Apply(ctx, adds, dels); err != nil {
				b.Fatal(err)
			}
			err := db.queryNode(ctx, endpoint(q.Subject, "?x"), q.Expr, endpoint(q.Object, "?y"), core.Options{Limit: 1000}, emit)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationFastPaths measures the §5 join-like fast paths
// against the generic product-graph algorithm on the patterns they
// serve.
func BenchmarkAblationFastPaths(b *testing.B) {
	setup(b)
	eng := newEngine(bench.g, bench.r)
	var joinish []workload.Query
	for _, q := range bench.qs {
		switch workload.Classify(q) {
		case "v / v", "v | v", "v || v", "v ^ v", "v /^ v":
			joinish = append(joinish, q)
		}
	}
	if len(joinish) == 0 {
		b.Skip("no join-like queries in the log sample")
	}
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			q := joinish[i%len(joinish)]
			_, err := eng.Eval(
				context.Background(),
				core.Query{Subject: core.Variable, Expr: q.Expr, Object: core.Variable},
				core.Options{Limit: bench.limit, Timeout: bench.timeout, DisableFastPaths: disable},
				func(uint32, uint32) bool { return true })
			if err != nil && err != core.ErrTimeout {
				b.Fatal(err)
			}
		}
	}
	b.Run("FastPaths", func(b *testing.B) { run(b, false) })
	b.Run("Generic", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTableSplit sweeps the d-bit vertical decomposition of
// the Glushkov transition tables (§3.3): space O((m/d)·2^d) vs step time
// O(m/d).
func BenchmarkAblationTableSplit(b *testing.B) {
	expr := pathexpr.MustParse("a/(b|c)*/(a|b)/c+/(a|c)*/b?")
	ids := func(s pathexpr.Sym) (uint32, bool) {
		return uint32(s.Name[0]-'a')*2 + b2u(s.Inverse), true
	}
	a := glushkov.Build(expr, ids)
	word := make([]uint32, 256)
	for i := range word {
		word[i] = uint32(i%3) * 2
	}
	for _, d := range []int{1, 2, 4, 8, 13} {
		d := d
		eng, err := glushkov.NewEngineSplitFor(a, d, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(splitName(d), func(b *testing.B) {
			b.ReportMetric(float64(eng.SizeBytes()), "table-bytes")
			for i := 0; i < b.N; i++ {
				eng.MatchRev(word)
			}
		})
	}
}

func splitName(d int) string { return "d=" + itoa(d) }

func b2u(x bool) uint32 {
	if x {
		return 1
	}
	return 0
}

// BenchmarkPredicateSubjectCounts times what the pattern planner pays
// once per executor for its statistics: the distinct subjects of every
// completed predicate of the fixture, each counted by one
// wavelet.RangeDistinct descent over its L_s range.
func BenchmarkPredicateSubjectCounts(b *testing.B) {
	setup(b)
	r := bench.r
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for p := range r.NumPreds {
			lo, hi := r.PredRange(p)
			wavelet.RangeDistinct(r.Ls, lo, hi, func(uint32, int, int) bool {
				n++
				return true
			})
		}
		if n == 0 {
			b.Fatal("no predicate has a subject")
		}
	}
}
