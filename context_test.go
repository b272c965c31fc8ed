package ringrpq

// A DB read takes a context first: its cancellation stops the
// evaluation at the next result or the traversal's next probe with
// ctx.Err(), and its deadline acts as WithTimeout does. Apply takes
// one too but never stops on it: a batch is atomic.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// chainDB builds the path n0 -p-> n1 -p-> … -p-> n(k-1), whose p*
// answer is every (ni, nj) with i ≤ j.
func chainDB(t *testing.T, k int) *DB {
	t.Helper()
	b := NewBuilder()
	for i := 0; i+1 < k; i++ {
		b.Add(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", i+1))
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// onChain reports whether (x, y) is a p* pair of chainDB.
func onChain(t *testing.T, x, y string) bool {
	t.Helper()
	i, err1 := strconv.Atoi(x[1:])
	j, err2 := strconv.Atoi(y[1:])
	if err1 != nil || err2 != nil {
		t.Fatalf("not a chain node: %q, %q", x, y)
	}
	return i <= j
}

func TestDBReadsCancelled(t *testing.T) {
	db := chainDB(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	n := 0
	err := db.QueryFunc(ctx, "?x", "p*", "?y", func(Solution) bool {
		n++
		return true
	})
	if !errors.Is(err, context.Canceled) || n > 1 {
		t.Fatalf("QueryFunc: err %v after %d solutions, want context.Canceled after at most 1", err, n)
	}
	if sols, err := db.Query(ctx, "?x", "p*", "?y"); !errors.Is(err, context.Canceled) || len(sols) > 1 {
		t.Fatalf("Query: err %v with %d solutions", err, len(sols))
	}
	if n, err := db.Count(ctx, "n0", "p+", "?y"); !errors.Is(err, context.Canceled) || n > 1 {
		t.Fatalf("Count: err %v with %d", err, n)
	}
	// A read with nothing to deliver fails all the same.
	if _, err := db.Count(ctx, "n5", "p", "n0"); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty Count: err %v", err)
	}
	_, rows, err := db.Select(ctx, "?x p ?y . ?y p* ?z")
	if !errors.Is(err, context.Canceled) || len(rows) > 1 {
		t.Fatalf("Select: err %v after %d rows, want context.Canceled after at most 1", err, len(rows))
	}
}

func TestDBReadCancelledMidway(t *testing.T) {
	db := chainDB(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	err := db.QueryFunc(ctx, "?x", "p*", "?y", func(Solution) bool {
		n++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) || n != 1 {
		t.Fatalf("err %v after %d solutions, want context.Canceled after the one that cancelled", err, n)
	}
}

// TestDBReadDeadline: a context deadline and WithTimeout each cut a
// slow read short with ErrTimeout, and what was delivered before the
// cut is a valid part of the answer.
func TestDBReadDeadline(t *testing.T) {
	db := chainDB(t, 400)
	bg := context.Background()
	slow := func(got *[]Solution) func(Solution) bool {
		return func(s Solution) bool {
			time.Sleep(50 * time.Microsecond)
			*got = append(*got, s)
			return true
		}
	}
	check := func(name string, err error, got []Solution) {
		t.Helper()
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: err %v, want ErrTimeout", name, err)
		}
		if len(got) >= 400*401/2 {
			t.Fatalf("%s: the whole answer arrived before the deadline", name)
		}
		for _, s := range got {
			if !onChain(t, s.Subject, s.Object) {
				t.Fatalf("%s: (%s, %s) is not a p* pair", name, s.Subject, s.Object)
			}
		}
	}

	ctx, cancel := context.WithTimeout(bg, time.Millisecond)
	defer cancel()
	var got []Solution
	err := db.QueryFunc(ctx, "?x", "p*", "?y", slow(&got))
	check("ctx deadline", err, got)

	got = nil
	err = db.QueryFunc(bg, "?x", "p*", "?y", slow(&got), WithTimeout(time.Millisecond))
	check("WithTimeout", err, got)

	expired, cancel2 := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := db.Count(expired, "n0", "p*", "?y"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Count under a passed deadline: err %v, want ErrTimeout", err)
	}

	// 80 200 rows take far longer than a millisecond to name.
	ctx3, cancel3 := context.WithTimeout(bg, time.Millisecond)
	defer cancel3()
	vars, rows, err := db.Select(ctx3, "?x p* ?y")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Select: err %v with %d rows, want ErrTimeout", err, len(rows))
	}
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Fatalf("Select vars %v", vars)
	}
	for _, r := range rows {
		if !onChain(t, r[0], r[1]) {
			t.Fatalf("Select: (%s, %s) is not a p* pair", r[0], r[1])
		}
	}
	_, rows, err = db.Select(bg, "?x p* ?y", WithTimeout(time.Millisecond))
	if !errors.Is(err, ErrTimeout) || len(rows) >= 400*401/2 {
		t.Fatalf("Select WithTimeout: err %v with %d rows, want ErrTimeout", err, len(rows))
	}
}

func TestApplyIgnoresCancellation(t *testing.T) {
	db := chainDB(t, 10)
	bg := context.Background()
	before := db.DataVersion()
	ctx, cancel := context.WithCancel(bg)
	cancel()
	st, err := db.Apply(ctx, []Triple{{"n0", "p", "new"}}, []Triple{{"n1", "p", "n2"}})
	if err != nil {
		t.Fatalf("Apply under a cancelled ctx: %v", err)
	}
	if st.DataVersion != before+1 {
		t.Fatalf("data version %d, want %d", st.DataVersion, before+1)
	}
	if n, _ := db.Count(bg, "n0", "p", "new"); n != 1 {
		t.Fatal("the batch's add is missing")
	}
	if n, _ := db.Count(bg, "n1", "p", "n2"); n != 0 {
		t.Fatal("the batch's delete is missing")
	}
}

// emitFreeChainLen is the length of emitFreeDB's p chain: long enough
// that walking it takes far longer than the millisecond after which
// the tests below cancel.
const emitFreeChainLen = 200_000

var (
	emitFreeOnce sync.Once
	emitFree     *DB
)

// emitFreeDB builds v0 -p-> v1 -p-> … -p-> v199999 and one q edge away
// from it, once per test binary. (?x, q/p*, v199999) then walks the
// whole chain back and finds no q edge: a read that delivers nothing.
func emitFreeDB(t *testing.T) (db *DB, last string) {
	t.Helper()
	emitFreeOnce.Do(func() {
		b := NewBuilder()
		for i := 0; i+1 < emitFreeChainLen; i++ {
			b.Add(fmt.Sprintf("v%d", i), "p", fmt.Sprintf("v%d", i+1))
		}
		b.Add("a", "q", "b")
		emitFree, _ = b.Build()
	})
	if emitFree == nil {
		t.Fatal("building the chain failed")
	}
	return emitFree, fmt.Sprintf("v%d", emitFreeChainLen-1)
}

// cancelSoon returns a context cancelled a millisecond from now, while
// the read it is passed to is under way.
func cancelSoon(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(time.Millisecond, cancel)
	t.Cleanup(cancel)
	return ctx
}

// A read cancelled while it delivers nothing stops inside the
// traversal with context.Canceled, rather than walk to its end and
// return nil.
func TestDBReadCancelledWithoutResults(t *testing.T) {
	db, last := emitFreeDB(t)
	err := db.QueryFunc(cancelSoon(t), "?x", "q/p*", last, func(s Solution) bool {
		t.Fatalf("QueryFunc delivered %v", s)
		return false
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryFunc: err %v, want context.Canceled", err)
	}
	if n, err := db.Count(cancelSoon(t), "?x", "q/p*", last); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("Count: %d, err %v; want 0 and context.Canceled", n, err)
	}
	if _, rows, err := db.Select(cancelSoon(t), "?x q/p* "+last); !errors.Is(err, context.Canceled) || len(rows) != 0 {
		t.Fatalf("Select: %d rows, err %v; want none and context.Canceled", len(rows), err)
	}
}

// A service request cancelled while its evaluation delivers nothing
// frees the one worker and counts as cancelled: the next request is
// answered.
func TestServiceCancelledWithoutResults(t *testing.T) {
	db, last := emitFreeDB(t)
	svc := NewService(db, ServiceConfig{Workers: 1})
	defer svc.Close()
	if n, err := svc.Count(cancelSoon(t), "?x", "q/p*", last); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("Count: %d, err %v; want 0 and context.Canceled", n, err)
	}
	if st := svc.Stats(); st.Cancelled != 1 || st.Errors != 0 || st.ResultEntries != 0 {
		t.Fatalf("stats %+v; want one cancellation, no error and nothing cached", st)
	}
	if n, err := svc.Count(context.Background(), "v0", "p", "?y"); err != nil || n != 1 {
		t.Fatalf("the next request: %d, err %v; want 1", n, err)
	}
}
