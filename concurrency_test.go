package ringrpq_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ringrpq"
)

// stressDB builds a random graph large enough for queries to traverse
// real structure but small enough for the race detector.
func stressDB(t testing.TB) *ringrpq.DB {
	t.Helper()
	const (
		nodes = 300
		edges = 1800
		preds = 8
	)
	rng := rand.New(rand.NewSource(7))
	b := ringrpq.NewBuilder()
	for i := 0; i < edges; i++ {
		b.Add(
			fmt.Sprintf("n%d", rng.Intn(nodes)),
			fmt.Sprintf("p%d", rng.Intn(preds)),
			fmt.Sprintf("n%d", rng.Intn(nodes)),
		)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// stressQueries mixes the paper's common patterns over constant and
// variable endpoints, including inverses, alternations, closures and a
// negated set.
func stressQueries() []ringrpq.Request {
	exprs := []string{
		"p0",
		"p0/p1",
		"p2*",
		"p3+",
		"(p0|p1)/p2?",
		"^p4/p5",
		"(p0|^p1)*",
		"!(p0|p1)",
		"p6/p7*",
		"(p2/p3)+",
	}
	var qs []ringrpq.Request
	for i, e := range exprs {
		qs = append(qs, ringrpq.Request{Subject: "?s", Expr: e, Object: "?o"})
		qs = append(qs, ringrpq.Request{Subject: fmt.Sprintf("n%d", i*17%300), Expr: e, Object: "?o"})
		qs = append(qs, ringrpq.Request{Subject: "?s", Expr: e, Object: fmt.Sprintf("n%d", i*31%300)})
	}
	return qs
}

func sortedSolutions(sols []ringrpq.Solution) []ringrpq.Solution {
	out := append([]ringrpq.Solution(nil), sols...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		return out[i].Object < out[j].Object
	})
	return out
}

func solutionsEqual(a, b []ringrpq.Solution) bool {
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

// reference evaluates every query single-threadedly on the base DB.
func reference(t testing.TB, db *ringrpq.DB, qs []ringrpq.Request) [][]ringrpq.Solution {
	t.Helper()
	out := make([][]ringrpq.Solution, len(qs))
	for i, q := range qs {
		sols, err := db.Query(q.Subject, q.Expr, q.Object)
		if err != nil {
			t.Fatalf("reference query %d (%s): %v", i, q.Expr, err)
		}
		out[i] = sortedSolutions(sols)
	}
	return out
}

// TestServiceStress runs many goroutines through a Service and checks
// every result set against the single-threaded reference. Run with
// -race: the immutability of the index and the confinement of each
// worker's engine are exactly what it verifies.
func TestServiceStress(t *testing.T) {
	db := stressDB(t)
	qs := stressQueries()
	want := reference(t, db, qs)

	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{Workers: 4, QueueDepth: 8})
	defer svc.Close()
	ctx := context.Background()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range qs {
				q := qs[(i+c)%len(qs)]
				wantSet := want[(i+c)%len(qs)]
				sols, err := svc.Query(ctx, q.Subject, q.Expr, q.Object)
				if err != nil {
					errs <- fmt.Errorf("client %d query %q: %v", c, q.Expr, err)
					return
				}
				if !solutionsEqual(sortedSolutions(sols), wantSet) {
					errs <- fmt.Errorf("client %d query (%s,%s,%s): got %d solutions, want %d",
						c, q.Subject, q.Expr, q.Object, len(sols), len(wantSet))
					return
				}
				n, err := svc.Count(ctx, q.Subject, q.Expr, q.Object)
				if err != nil || n != len(wantSet) {
					errs <- fmt.Errorf("client %d count (%s,%s,%s): n=%d err=%v, want %d",
						c, q.Subject, q.Expr, q.Object, n, err, len(wantSet))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := svc.Stats()
	if st.Requests == 0 || st.Completed == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

// TestServiceBatchStress checks Batch against the same reference while
// other clients compete for the pool.
func TestServiceBatchStress(t *testing.T) {
	db := stressDB(t)
	qs := stressQueries()
	want := reference(t, db, qs)

	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{Workers: 4, QueueDepth: 4})
	defer svc.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := svc.Batch(ctx, qs)
			for i, res := range results {
				if res.Err != nil {
					t.Errorf("batch[%d] (%s): %v", i, qs[i].Expr, res.Err)
					return
				}
				if !solutionsEqual(sortedSolutions(res.Solutions), want[i]) {
					t.Errorf("batch[%d] (%s,%s,%s): got %d solutions, want %d",
						i, qs[i].Subject, qs[i].Expr, qs[i].Object, len(res.Solutions), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloneStress exercises the raw DB.Clone path the service is built
// on: one clone per goroutine, shared immutable index, no pool.
func TestCloneStress(t *testing.T) {
	db := stressDB(t)
	qs := stressQueries()
	want := reference(t, db, qs)

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clone := db.Clone()
			for i, q := range qs {
				sols, err := clone.Query(q.Subject, q.Expr, q.Object)
				if err != nil {
					t.Errorf("clone %d query %q: %v", c, q.Expr, err)
					return
				}
				if !solutionsEqual(sortedSolutions(sols), want[i]) {
					t.Errorf("clone %d query (%s,%s,%s): got %d solutions, want %d",
						c, q.Subject, q.Expr, q.Object, len(sols), len(want[i]))
				}
			}
		}(c)
	}
	wg.Wait()
}
