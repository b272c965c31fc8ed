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
	x := NewExec(g, ring.New(g, ring.WaveletMatrix), nil)

	// A nanosecond budget has expired by the order search's first probe;
	// the whole call must come back almost immediately with ErrTimeout
	// rather than planning and joining first.
	start := time.Now()
	err := x.Run(slowPlanPattern(), Options{Timeout: time.Nanosecond}, func(Binding) bool { return true })
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("nanosecond budget: err = %v, want ErrTimeout", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("nanosecond budget ran for %v; planning escaped the deadline", elapsed)
	}

	// The timed-out attempt must not poison the plan memo: a generous
	// budget on the same executor plans afresh and completes.
	if err := x.Run(slowPlanPattern(), Options{Timeout: time.Minute}, func(Binding) bool { return true }); err != nil {
		t.Fatalf("generous budget after timeout: %v", err)
	}
}

// TestRunDeadlineSharedWithLTJ checks the second half of the bugfix:
// the LTJ stage receives the *remaining* budget, not a fresh copy of
// the full timeout (two independently-started budgets could run a
// pattern to ~2× its allowance).
func TestRunDeadlineSharedWithLTJ(t *testing.T) {
	g := enginetest.RandomGraph(4, 40, 3, 200)
	x := NewExec(g, ring.New(g, ring.WaveletMatrix), nil)
	q := MustParse("?a pa ?b . ?b pb ?c . ?c pa+ ?d")

	// Warm the plan memo so the next run's planning is free, then
	// exhaust the budget before the join starts: Run must report
	// ErrTimeout without granting LTJ a fresh timeout.
	if err := x.Run(q, Options{}, func(Binding) bool { return true }); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	start := time.Now()
	err := x.Run(q, Options{Timeout: time.Nanosecond}, func(Binding) bool {
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
