package query

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ringrpq/internal/enginetest"
	"ringrpq/internal/ring"
)

// slowPlanPattern is an 8-variable chain: the longest planning the
// generated workloads ask for. Its order search is one descent of eight
// steps, each probing the deadline.
func slowPlanPattern() *Query {
	clauses := []string{}
	vars := []string{"?a", "?b", "?c", "?d", "?e", "?f", "?g", "?h"}
	for i := 0; i+1 < len(vars); i++ {
		clauses = append(clauses, vars[i]+" pa "+vars[i+1])
	}
	return MustParse(strings.Join(clauses, " . "))
}

// TestRunDeadlineCoversPlanning pins the bugfix: one absolute deadline
// captured at Run entry governs planning, LTJ and the RPQ steps, so a
// pattern cannot run materially past 1× its budget whichever of them
// is the slow part.
func TestRunDeadlineCoversPlanning(t *testing.T) {
	g := enginetest.RandomGraph(3, 30, 3, 120)
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))

	// A nanosecond budget has expired by the order search's first probe;
	// the whole call must come back almost immediately with ErrTimeout
	// rather than planning and joining first.
	start := time.Now()
	err := runBindings(x, slowPlanPattern(), Options{Timeout: time.Nanosecond}, func(binding) bool { return true })
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("nanosecond budget: err = %v, want ErrTimeout", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("nanosecond budget ran for %v; planning escaped the deadline", elapsed)
	}

	// The timed-out attempt must not poison the plan memo: it holds no
	// plan, and a generous budget on the same executor plans afresh and
	// completes.
	if n := len(x.plans); n != 0 {
		t.Fatalf("the timed-out plan was memoised (%d plans held)", n)
	}
	if err := runBindings(x, slowPlanPattern(), Options{Timeout: time.Minute}, func(binding) bool { return true }); err != nil {
		t.Fatalf("generous budget after timeout: %v", err)
	}
}

// TestRunDeadlineSharedWithLTJ checks the second half of the bugfix:
// the LTJ stage receives the *remaining* budget, not a fresh copy of
// the full timeout (two independently-started budgets could run a
// pattern to ~2× its allowance).
func TestRunDeadlineSharedWithLTJ(t *testing.T) {
	g := enginetest.RandomGraph(4, 40, 3, 200)
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	q := MustParse("?a pa ?b . ?b pb ?c . ?c pa+ ?d")

	// Warm the plan memo so the next run's planning is free, then
	// exhaust the budget before the join starts: Run must report
	// ErrTimeout without granting LTJ a fresh timeout.
	if err := runBindings(x, q, Options{}, func(binding) bool { return true }); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	start := time.Now()
	err := runBindings(x, q, Options{Timeout: time.Nanosecond}, func(binding) bool {
		time.Sleep(time.Millisecond) // any emitted row only slows the clock further
		return true
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted budget: err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("exhausted budget ran for %v", elapsed)
	}
}
