package ringrpq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sortedPairs renders solutions for set comparison.
func sortedPairs(sols []Solution) []string {
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = s.Subject + "→" + s.Object
	}
	sort.Strings(out)
	return out
}

func equalPairs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApplyVisibleWithoutRebuild: the acceptance criterion's first
// clause — after Apply, Query/Select observe the change with no
// compaction having run.
func TestApplyVisibleWithoutRebuild(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "knows", "b")
	b.Add("b", "knows", "c")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1) // no rebuilds in this test

	if n, _ := db.Count(context.Background(), "a", "knows+", "?x"); n != 2 {
		t.Fatalf("pre-update count = %d, want 2", n)
	}

	// Add a chain extension through a brand-new node, delete one edge.
	if _, err := db.Apply(context.Background(), []Triple{{"c", "knows", "dee"}}, []Triple{{"b", "knows", "c"}}); err != nil {
		t.Fatal(err)
	}
	sols, err := db.Query(context.Background(), "a", "knows+", "?x")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedPairs(sols); !equalPairs(got, []string{"a→b"}) {
		t.Fatalf("post-update: %v (the b→c edge is deleted, so c/dee are unreachable)", got)
	}
	sols, err = db.Query(context.Background(), "c", "knows", "?x")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedPairs(sols); !equalPairs(got, []string{"c→dee"}) {
		t.Fatalf("new-node edge missing: %v", got)
	}
	// Inverse direction of the overlay edge.
	if n, _ := db.Count(context.Background(), "dee", "^knows", "?x"); n != 1 {
		t.Fatalf("inverse of the overlay edge missing")
	}
	// Pattern execution sees the union too.
	_, rows, err := db.Select(context.Background(), "SELECT ?x WHERE { a knows ?y . ?y knows* ?x }")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "b" {
		t.Fatalf("pattern over union: %v", rows)
	}
	if st := db.Stats().Updates; st.OverlayEdges != 2 || st.Tombstones != 2 || st.Epoch != 0 {
		t.Fatalf("update stats: %+v", st)
	}

	// Unknown predicates are rejected; deletes of unknown names no-op.
	if _, err := db.Apply(context.Background(), []Triple{{"a", "likes", "b"}}, nil); !errors.Is(err, ErrUnknownPredicate) {
		t.Fatalf("unknown predicate: err = %v", err)
	}
	if _, err := db.Apply(context.Background(), nil, []Triple{{"zz", "knows", "qq"}}); err != nil {
		t.Fatalf("no-op delete: %v", err)
	}
}

// TestBeginCommitAndFlush covers one update batch and the synchronous
// compaction path end to end, including epoch movement and
// result stability across the swap.
func TestBeginCommitAndFlush(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "p", "b")
	b.Add("b", "p", "c")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)

	if _, err := db.Apply(context.Background(), []Triple{{"c", "p", "d"}}, []Triple{{"a", "p", "b"}}); err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(context.Background(), "?x", "p", "?y")
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Updates
	if st.OverlayEdges != 2 || st.Tombstones != 2 {
		t.Fatalf("overlay before flush: %+v", st)
	}

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st = db.Stats().Updates
	if st.OverlayEdges != 0 || st.Tombstones != 0 || st.Epoch != 1 || st.Compactions != 1 {
		t.Fatalf("post-flush stats: %+v", st)
	}
	after, err := db.Query(context.Background(), "?x", "p", "?y")
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(sortedPairs(before), sortedPairs(after)) {
		t.Fatalf("swap changed results: %v vs %v", sortedPairs(before), sortedPairs(after))
	}
	// Flushing a clean overlay is a no-op.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats().Updates; st.Epoch != 1 {
		t.Fatalf("no-op flush moved the epoch: %+v", st)
	}
}

// TestSaveFlushesOverlay: Save persists exactly what the DB serves.
func TestSaveFlushesOverlay(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "p", "b")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	if _, err := db.Apply(context.Background(), []Triple{{"b", "p", "newkid"}}, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db2.Count(context.Background(), "a", "p/p", "?x"); n != 1 {
		t.Fatalf("reloaded database lost the overlay edge")
	}
}

// oracleEdges is the mutable map-of-edges ground truth for the
// differential interleavings.
type oracleEdges map[[3]string]bool

func (o oracleEdges) apply(adds, dels []Triple) {
	for _, t := range adds {
		o[[3]string{t.Subject, t.Predicate, t.Object}] = true
	}
	for _, t := range dels {
		delete(o, [3]string{t.Subject, t.Predicate, t.Object})
	}
}

// expected answers (s, p, ?x) over the oracle, completed with inverses.
func (o oracleEdges) query(s, p string, inverse bool) []string {
	var out []string
	for e, ok := range o {
		if !ok || e[1] != p {
			continue
		}
		if !inverse && e[0] == s {
			out = append(out, s+"→"+e[2])
		}
		if inverse && e[2] == s {
			out = append(out, s+"→"+e[0])
		}
	}
	sort.Strings(out)
	return out
}

// TestUpdateDifferential drives random Apply/Flush/compaction
// interleavings against the oracle.
func TestUpdateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	preds := []string{"pa", "pb", "pc"}
	node := func(i int) string { return fmt.Sprintf("n%02d", i) }

	b := NewBuilder()
	oracle := oracleEdges{}
	for i := 0; i < 60; i++ {
		s, p, o := node(rng.Intn(12)), preds[rng.Intn(len(preds))], node(rng.Intn(12))
		b.Add(s, p, o)
		oracle[[3]string{s, p, o}] = true
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A low threshold lets automatic compaction interleave naturally.
	db.SetCompactionThreshold(24)

	check := func(step int) {
		t.Helper()
		for i := 0; i < 12; i++ {
			s := node(i)
			for _, p := range preds {
				for _, inverse := range []bool{false, true} {
					expr := p
					if inverse {
						expr = "^" + p
					}
					sols, err := db.Query(context.Background(), s, expr, "?x")
					if err != nil {
						t.Fatalf("step %d: query(%s, %s): %v", step, s, expr, err)
					}
					got := sortedPairs(sols)
					want := oracle.query(s, p, inverse)
					if !equalPairs(got, want) {
						t.Fatalf("step %d: (%s, %s, ?x) = %v, oracle %v", step, s, expr, got, want)
					}
				}
			}
		}
	}

	check(-1)
	for step := 0; step < 40; step++ {
		switch rng.Intn(10) {
		case 0:
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			var adds, dels []Triple
			for n := rng.Intn(4); n >= 0; n-- {
				tr := Triple{node(rng.Intn(14)), preds[rng.Intn(len(preds))], node(rng.Intn(14))}
				if rng.Intn(3) == 0 {
					dels = append(dels, tr)
				} else {
					adds = append(adds, tr)
				}
			}
			if _, err := db.Apply(context.Background(), adds, dels); err != nil {
				t.Fatal(err)
			}
			// The oracle applies adds first, dels second — DB.Apply's
			// documented order.
			oracle.apply(adds, dels)
		}
		check(step)
	}
	// Final flush must preserve everything.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check(999)
	if db.Stats().Updates.Epoch == 0 {
		t.Fatalf("no compaction ever ran; the interleaving lost its bite")
	}
}

// TestCompactionWithEmptyShard: compaction grows the node space,
// then deletes the last edge — the bulk decode and the counting-sort
// build must give an empty ring back and take it in again — and then
// adds one back. The test and subtest names date from the sharded
// layout, whose empty sub-rings it also covered; a DB now holds one
// ring, and emptying that ring is the case left to check.
func TestCompactionWithEmptyShard(t *testing.T) {
	t.Run("matrix", func(t *testing.T) {
		b := NewBuilder()
		b.Add("a", "p", "b")
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		db.SetCompactionThreshold(-1)
		step := func(adds, dels []Triple, wantPairs ...string) {
			t.Helper()
			if _, err := db.Apply(context.Background(), adds, dels); err != nil {
				t.Fatal(err)
			}
			epoch := db.Stats().Updates.Epoch
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := db.Stats().Updates; st.Epoch != epoch+1 || st.OverlayEdges+st.Tombstones != 0 {
				t.Fatalf("flush did not compact: %+v", st)
			}
			sols, err := db.Query(context.Background(), "?x", "p+", "?y")
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedPairs(sols); !equalPairs(got, wantPairs) {
				t.Fatalf("after compaction: %v, want %v", got, wantPairs)
			}
		}
		step([]Triple{{"b", "p", "fresh"}}, nil, "a→b", "a→fresh", "b→fresh")
		step(nil, []Triple{{"a", "p", "b"}, {"b", "p", "fresh"}})
		step([]Triple{{"fresh", "p", "a"}}, nil, "fresh→a")
		if n := db.h.cur.Load().r.N; n != 2 {
			t.Fatalf("ring holds %d completed triples, want 2", n)
		}
	})
}

// TestUpdateStressTornSnapshot is the acceptance criterion's
// concurrent read+write stress: every Apply atomically moves a single
// marker edge (delete the old target, add the new one in one batch),
// so any query observing zero or two targets has seen a torn snapshot.
// Run under -race via `make race`.
func TestUpdateStressTornSnapshot(t *testing.T) {
	// One ring: the subtest name dates from the sharded layout.
	t.Run("shards=1", func(t *testing.T) {
		b := NewBuilder()
		b.Add("src", "mark", "t0000")
		for i := 0; i < 40; i++ {
			b.Add(fmt.Sprintf("f%d", i), "filler", fmt.Sprintf("g%d", i))
		}
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		db.SetCompactionThreshold(8) // frequent swaps under fire

		svc := NewService(db, ServiceConfig{Workers: 4, ResultCacheEntries: 64})
		defer svc.Close()

		const moves = 300
		var stop atomic.Bool
		var wg sync.WaitGroup
		writerErr := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer stop.Store(true)
			for i := 1; i <= moves; i++ {
				old := fmt.Sprintf("t%04d", i-1)
				next := fmt.Sprintf("t%04d", i)
				if _, err := db.Apply(context.Background(),
					[]Triple{{"src", "mark", next}},
					[]Triple{{"src", "mark", old}},
				); err != nil {
					writerErr <- err
					return
				}
			}
		}()

		readers := 4
		readerErr := make(chan error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				for !stop.Load() {
					sols, err := svc.Query(ctx, "src", "mark", "?x")
					if err != nil {
						readerErr <- err
						return
					}
					if len(sols) != 1 {
						readerErr <- fmt.Errorf("torn snapshot: saw %d marker edges (%v)", len(sols), sortedPairs(sols))
						return
					}
				}
			}()
		}
		wg.Wait()
		close(writerErr)
		close(readerErr)
		for err := range writerErr {
			t.Fatal(err)
		}
		for err := range readerErr {
			t.Fatal(err)
		}

		// Converged state.
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		final := fmt.Sprintf("t%04d", moves)
		sols, err := db.Query(context.Background(), "src", "mark", "?x")
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 1 || sols[0].Object != final {
			t.Fatalf("final marker = %v, want %s", sortedPairs(sols), final)
		}
		if db.Stats().Updates.Epoch == 0 {
			t.Fatalf("stress run never compacted")
		}
	})
}

// TestConcurrentUpdateBatches: concurrent Apply calls from several
// goroutines (and clones) serialise without losing updates.
func TestConcurrentUpdateBatches(t *testing.T) {
	b := NewBuilder()
	b.Add("seed", "p", "seed2")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := db.Clone()
			for i := 0; i < 25; i++ {
				if _, err := h.Apply(context.Background(), []Triple{{fmt.Sprintf("w%d", w), "p", fmt.Sprintf("x%d_%d", w, i)}}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if n, _ := db.Count(context.Background(), fmt.Sprintf("w%d", w), "p", "?x"); n != 25 {
			t.Fatalf("writer %d lost updates: %d/25", w, n)
		}
	}
	if st := db.Stats().Updates; st.DataVersion != 101 && st.DataVersion != 102 {
		// 100 applies + 1–2 swaps (auto + explicit flush).
		t.Logf("data version %d (informational)", st.DataVersion)
	}
}

// TestUpdateTimeoutStillHonoured: the union path honours WithTimeout.
func TestUpdateTimeoutStillHonoured(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 200; i++ {
		b.Add(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", (i+1)%200))
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	if _, err := db.Apply(context.Background(), []Triple{{"n0", "p", "n100"}}, nil); err != nil {
		t.Fatal(err)
	}
	err = db.QueryFunc(context.Background(), "?x", "p*", "?y", func(Solution) bool {
		time.Sleep(50 * time.Microsecond)
		return true
	}, WithTimeout(time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("union-path timeout: err = %v", err)
	}
}

// TestRejectedApplyLeavesNoPhantomNodes: a batch failing on an unknown
// predicate must not intern its node names — phantoms would surface as
// spurious nullable self-pairs.
func TestRejectedApplyLeavesNoPhantomNodes(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "p", "b")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := len(db.Nodes())
	if _, err := db.Apply(context.Background(), []Triple{{"ghost1", "p", "ghost2"}, {"x", "bogus", "y"}}, nil); !errors.Is(err, ErrUnknownPredicate) {
		t.Fatalf("err = %v", err)
	}
	if got := len(db.Nodes()); got != before {
		t.Fatalf("rejected batch grew the dictionary: %d → %d", before, got)
	}
	// A later valid update must not resurrect the phantoms as (v, v)
	// self-pairs of nullable queries.
	if _, err := db.Apply(context.Background(), []Triple{{"a", "p", "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	sols, err := db.Query(context.Background(), "?x", "p?", "?y")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sols {
		if s.Subject == "ghost1" || s.Subject == "ghost2" {
			t.Fatalf("phantom node leaked into results: %v", s)
		}
	}
}

// TestApplyCancelsOut: batches that cancel out leave an empty overlay,
// with compaction off.
func TestApplyCancelsOut(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "p", "b")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	for i := 0; i < 200; i++ {
		// Add then delete the same non-static edge: consolidated weight
		// returns to zero every other batch.
		if _, err := db.Apply(context.Background(), []Triple{{"a", "p", "zz"}}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Apply(context.Background(), nil, []Triple{{"a", "p", "zz"}}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats().Updates
	if st.OverlayEdges != 0 || st.Tombstones != 0 {
		t.Fatalf("overlay should have cancelled out: %+v", st)
	}
}

// A nullable query relates every node of the snapshot's dictionary to
// itself, however the update history left it. Node z is minted by an
// add that a later delete cancels. Whether the overlay is then empty
// over the build's ring, or two compactions have since rebuilt the ring
// over z's id, the edge set is the same and so are the answers: (z, z)
// is one of them.
func TestNullableAnswerIndependentOfHistory(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "pa", "b")
	b.Add("b", "pa", "c")
	b.Add("c", "pb", "a")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	apply := func(adds, dels []Triple) {
		t.Helper()
		if _, err := db.Apply(context.Background(), adds, dels); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if n, err := db.Count(context.Background(), "?x", "pa*", "?y"); err != nil || n != 7 {
			t.Fatalf("%s: Count(?x pa* ?y) = %d, %v; want 7", when, n, err)
		}
		if sols, err := db.Query(context.Background(), "z", "pa?", "z"); err != nil || len(sols) != 1 {
			t.Fatalf("%s: Query(z pa? z) = %v, %v; want the one self-pair", when, sols, err)
		}
		_, rows, err := db.Select(context.Background(), "?x pa* ?y")
		if err != nil {
			t.Fatal(err)
		}
		self := false
		for _, r := range rows {
			self = self || r[0] == "z" && r[1] == "z"
		}
		if len(rows) != 7 || !self {
			t.Fatalf("%s: Select(?x pa* ?y) = %v; want 7 rows with (z, z)", when, rows)
		}
	}

	zpb := []Triple{{"z", "pb", "a"}}
	apply(zpb, nil)
	apply(nil, zpb)
	check("overlay empty over the build's ring")

	apb := []Triple{{"a", "pb", "c"}}
	apply(apb, nil)
	flush()
	apply(nil, apb)
	flush()
	check("after two compactions")
}
