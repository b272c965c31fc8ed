package ringrpq

// Property-based differential harness for the standing-query
// subsystem: random graphs × random update sequences × registered
// expressions and patterns, asserting after every applied batch that
// the accumulated deltas reproduce exactly the full re-evaluation of
// each query. The registry worker runs
// concurrently with the applying goroutine, so `go test -race` also
// exercises the notification path.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ringrpq/internal/enginetest"
	"ringrpq/internal/pathexpr"
)

// diffMirror tracks one subscription's result set as reconstructed
// purely from its delta stream.
type diffMirror struct {
	sub             *Subscription
	subject, object string
	expr, pattern   string
	pairs           map[Pair]bool
	rows            map[string]bool
	label           string
}

func diffRowKey(row []string) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(strconv.Itoa(len(v)))
		sb.WriteByte(':')
		sb.WriteString(v)
	}
	return sb.String()
}

// drain applies every ready delta to the mirror, asserting stream
// sanity (no duplicate additions, no phantom retractions).
func (m *diffMirror) drain(t *testing.T) {
	t.Helper()
	for {
		d, ok, err := m.sub.TryNext()
		if err != nil {
			t.Fatalf("%s: TryNext: %v", m.label, err)
		}
		if !ok {
			return
		}
		for _, p := range d.Added {
			if m.pairs[p] {
				t.Fatalf("%s: duplicate add %v at version %d", m.label, p, d.Version)
			}
			m.pairs[p] = true
		}
		for _, p := range d.Removed {
			if !m.pairs[p] {
				t.Fatalf("%s: phantom removal %v at version %d", m.label, p, d.Version)
			}
			delete(m.pairs, p)
		}
		for _, row := range d.AddedRows {
			k := diffRowKey(row)
			if m.rows[k] {
				t.Fatalf("%s: duplicate row add %v at version %d", m.label, row, d.Version)
			}
			m.rows[k] = true
		}
		for _, row := range d.RemovedRows {
			k := diffRowKey(row)
			if !m.rows[k] {
				t.Fatalf("%s: phantom row removal %v at version %d", m.label, row, d.Version)
			}
			delete(m.rows, k)
		}
	}
}

// check compares the mirror against a full re-evaluation on the
// current database.
func (m *diffMirror) check(t *testing.T, db *DB, step int) {
	t.Helper()
	if m.pattern != "" {
		_, rows, err := db.Select(context.Background(), m.pattern)
		if err != nil {
			t.Fatalf("%s: Select: %v", m.label, err)
		}
		if len(rows) != len(m.rows) {
			t.Fatalf("%s step %d: mirror has %d rows, full eval %d", m.label, step, len(m.rows), len(rows))
		}
		for _, row := range rows {
			if !m.rows[diffRowKey(row)] {
				t.Fatalf("%s step %d: mirror missing row %v", m.label, step, row)
			}
		}
		return
	}
	sols, err := db.Query(context.Background(), m.subject, m.expr, m.object)
	if err != nil {
		t.Fatalf("%s: Query: %v", m.label, err)
	}
	if len(sols) != len(m.pairs) {
		t.Fatalf("%s step %d: mirror has %d pairs, full eval %d\nmirror=%v\nfull=%v",
			m.label, step, len(m.pairs), len(sols), m.pairs, sols)
	}
	for _, s := range sols {
		if !m.pairs[Pair{Subject: s.Subject, Object: s.Object}] {
			t.Fatalf("%s step %d: mirror missing pair %v", m.label, step, s)
		}
	}
}

func diffNode(i int) string { return fmt.Sprintf("n%d", i) }
func diffPred(i int) string { return "p" + string(rune('a'+i)) }

// subscribeMirror registers one standing query and seeds its mirror
// (from the Snapshot baseline delta or a direct evaluation).
func subscribeMirror(t *testing.T, db *DB, label, subject, object, expr, pattern string, wantSnapshot bool) *diffMirror {
	t.Helper()
	sub, err := db.Subscribe(SubscribeRequest{
		Subject: subject, Object: object, Expr: expr, Pattern: pattern,
		Snapshot: wantSnapshot,
	})
	if err != nil {
		t.Fatalf("%s: Subscribe: %v", label, err)
	}
	m := &diffMirror{
		sub: sub, subject: subject, object: object, expr: expr, pattern: pattern,
		pairs: map[Pair]bool{}, rows: map[string]bool{}, label: label,
	}
	if wantSnapshot {
		m.drain(t) // the baseline delta seeds the mirror
	} else if pattern != "" {
		_, rows, err := db.Select(context.Background(), pattern)
		if err != nil {
			t.Fatalf("%s: initial Select: %v", label, err)
		}
		for _, row := range rows {
			m.rows[diffRowKey(row)] = true
		}
	} else {
		sols, err := db.Query(context.Background(), subject, expr, object)
		if err != nil {
			t.Fatalf("%s: initial Query: %v", label, err)
		}
		for _, s := range sols {
			m.pairs[Pair{Subject: s.Subject, Object: s.Object}] = true
		}
	}
	return m
}

// runStandingDifferential runs the property over the given number of
// random graphs and counts (subscription, batch) verifications.
func runStandingDifferential(t *testing.T, graphs int) int {
	t.Helper()
	checks := 0
	for g := 0; g < graphs; g++ {
		seed := int64(1003 + 17*g)
		rng := rand.New(rand.NewSource(seed))
		nv := 10 + rng.Intn(8)
		np := 3 + rng.Intn(2)
		b := NewBuilder()
		var triples []Triple
		for i := 0; i < 35+rng.Intn(35); i++ {
			tr := Triple{diffNode(rng.Intn(nv)), diffPred(rng.Intn(np)), diffNode(rng.Intn(nv))}
			b.Add(tr.Subject, tr.Predicate, tr.Object)
			triples = append(triples, tr)
		}
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		ghost := fmt.Sprintf("ghost%d", g)
		var mirrors []*diffMirror
		addExprSub := func(i int, subject, object string) {
			expr := pathexpr.String(enginetest.RandomExpr(rng, np, 2))
			label := fmt.Sprintf("g%d/sub%d{%s %s %s}", g, len(mirrors), subject, expr, object)
			mirrors = append(mirrors, subscribeMirror(t, db, label, subject, object, expr, "", i%2 == 0))
		}
		for i := 0; i < 4; i++ {
			addExprSub(i, "?s", "?o")
		}
		addExprSub(4, diffNode(rng.Intn(nv)), "?o")                   // constant subject
		addExprSub(5, "?s", diffNode(rng.Intn(nv)))                   // constant object
		addExprSub(6, ghost, "?o")                                    // unresolved constant
		addExprSub(7, diffNode(rng.Intn(nv)), diffNode(rng.Intn(nv))) // both constant

		patterns := []string{
			fmt.Sprintf("?x %s ?y . ?y %s ?z", diffPred(0), diffPred(0)),
			fmt.Sprintf("SELECT ?x ?z WHERE { ?x %s+ ?z }", diffPred(1)),
			fmt.Sprintf("?x %s ?y . ?y %s ?z", diffPred(0), diffPred(1)),
		}
		for i, p := range patterns {
			label := fmt.Sprintf("g%d/pat%d{%s}", g, i, p)
			sub, err := db.Subscribe(SubscribeRequest{Pattern: p, Snapshot: true})
			if err != nil {
				t.Fatalf("%s: Subscribe: %v", label, err)
			}
			m := &diffMirror{sub: sub, pattern: p, pairs: map[Pair]bool{}, rows: map[string]bool{}, label: label}
			m.drain(t)
			mirrors = append(mirrors, m)
		}

		steps := 6
		for step := 0; step < steps; step++ {
			var adds, dels []Triple
			for i := 0; i < 2+rng.Intn(6); i++ {
				s := diffNode(rng.Intn(nv))
				if rng.Intn(6) == 0 {
					s = fmt.Sprintf("f%d_%d_%d", g, step, i) // fresh node
				}
				if step == 2 && i == 0 {
					s = ghost // resolve the ghost constant mid-sequence
				}
				tr := Triple{s, diffPred(rng.Intn(np)), diffNode(rng.Intn(nv))}
				adds = append(adds, tr)
				triples = append(triples, tr)
			}
			for i := 0; i < rng.Intn(5); i++ {
				dels = append(dels, triples[rng.Intn(len(triples))])
			}
			if _, err := db.Apply(context.Background(), adds, dels); err != nil {
				t.Fatalf("g%d step %d: Apply: %v", g, step, err)
			}
			if step == 3 {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			db.SyncStanding()
			for _, m := range mirrors {
				m.drain(t)
				m.check(t, db, step)
				checks++
			}
		}
		for _, m := range mirrors {
			m.sub.Close()
		}
	}
	return checks
}

func TestStandingDifferential(t *testing.T) {
	checks := runStandingDifferential(t, 6)
	if checks < 200 {
		t.Fatalf("only %d differential cases, want >= 200", checks)
	}
	t.Logf("verified %d (subscription, batch) cases", checks)
}
