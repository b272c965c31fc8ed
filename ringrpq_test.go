package ringrpq

import (
	"sort"
	"strings"
	"testing"
	"time"
)

func metroDB(t *testing.T) *DB {
	t.Helper()
	b := NewBuilder()
	add := func(s, p, o string) { b.Add(s, p, o); b.Add(o, p, s) }
	add("Baquedano", "l1", "UCh")
	add("UCh", "l1", "LosHeroes")
	add("LosHeroes", "l2", "SantaAna")
	add("SantaAna", "l5", "BellasArtes")
	add("BellasArtes", "l5", "Baquedano")
	b.Add("SantaAna", "bus", "UCh")
	b.Add("BellasArtes", "bus", "SantaAna")
	b.Add("BellasArtes", "bus", "UCh")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func objects(sols []Solution) []string {
	var out []string
	for _, s := range sols {
		out = append(out, s.Object)
	}
	sort.Strings(out)
	return out
}

// The introduction's motivating query: stations reachable from Baquedano
// by metro.
func TestIntroExample(t *testing.T) {
	db := metroDB(t)
	sols, err := db.Query("Baquedano", "(l1|l2|l5)+", "?station")
	if err != nil {
		t.Fatal(err)
	}
	got := objects(sols)
	want := []string{"Baquedano", "BellasArtes", "LosHeroes", "SantaAna", "UCh"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("reachable by metro: %v, want %v", got, want)
	}
}

// The §4 worked example through the public API.
func TestWorkedExample(t *testing.T) {
	db := metroDB(t)
	sols, err := db.Query("Baquedano", "l5+/bus", "?y")
	if err != nil {
		t.Fatal(err)
	}
	got := objects(sols)
	if strings.Join(got, ",") != "SantaAna,UCh" {
		t.Fatalf("l5+/bus from Baquedano: %v, want [SantaAna UCh]", got)
	}
}

func TestBothConstant(t *testing.T) {
	db := metroDB(t)
	sols, err := db.Query("Baquedano", "(l1|l2|l5)+", "SantaAna")
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("got %d solutions, want 1", len(sols))
	}
	none, err := db.Query("Baquedano", "bus", "SantaAna")
	if err != nil || len(none) != 0 {
		t.Fatalf("unsatisfiable query returned %v (err %v)", none, err)
	}
}

func TestVariableToVariable(t *testing.T) {
	db := metroDB(t)
	n, err := db.Count("?x", "bus", "?y")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("bus pairs=%d, want 3", n)
	}
}

func TestInverse(t *testing.T) {
	db := metroDB(t)
	a, err := db.Query("?x", "^bus", "SantaAna")
	if err != nil {
		t.Fatal(err)
	}
	// ^bus into SantaAna means bus edges out of SantaAna: UCh.
	if len(a) != 1 || a[0].Subject != "UCh" {
		t.Fatalf("^bus to SantaAna: %v", a)
	}
}

func TestUnknownConstant(t *testing.T) {
	db := metroDB(t)
	sols, err := db.Query("Atlantis", "l1*", "?y")
	if err != nil || sols != nil {
		t.Fatalf("unknown constant: %v, %v", sols, err)
	}
}

func TestBadExpression(t *testing.T) {
	db := metroDB(t)
	if _, err := db.Query("?x", "l1|", "?y"); err == nil {
		t.Fatal("malformed expression must error")
	}
	if err := ParseExpr("(a"); err == nil {
		t.Fatal("ParseExpr must reject malformed input")
	}
}

func TestLimitAndStreaming(t *testing.T) {
	db := metroDB(t)
	sols, err := db.Query("?x", "(l1|l2|l5)*", "?y", WithLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 4 {
		t.Fatalf("limit ignored: %d solutions", len(sols))
	}
	count := 0
	err = db.QueryFunc("?x", "(l1|l2|l5)*", "?y", func(Solution) bool {
		count++
		return count < 2
	})
	if err != nil || count != 2 {
		t.Fatalf("streaming stop broken: count=%d err=%v", count, err)
	}
}

func TestTimeoutSurfaced(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3000; i++ {
		b.Add(nodeName(i), "p", nodeName((i*7+1)%3000))
		b.Add(nodeName(i), "q", nodeName((i*11+3)%3000))
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("?x", "(p|q)*", "?y", WithTimeout(time.Nanosecond))
	if err != ErrTimeout {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
}

func nodeName(i int) string { return "N" + string(rune('A'+i%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

func TestStats(t *testing.T) {
	db := metroDB(t)
	s := db.Stats()
	if s.Edges != 13 || s.CompletedEdges != 26 || s.Predicates != 4 {
		t.Fatalf("Stats=%+v", s)
	}
	if s.Nodes != 5 {
		t.Fatalf("Nodes=%d, want 5", s.Nodes)
	}
	if db.BytesPerEdge() <= 0 {
		t.Fatal("BytesPerEdge must be positive")
	}
	if !strings.Contains(db.String(), "5 nodes") {
		t.Fatalf("String=%q", db.String())
	}
	if len(db.Nodes()) != 5 || len(db.Predicates()) != 4 {
		t.Fatal("Nodes/Predicates listings wrong")
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

// Triples loaded from text answer alike on the single-ring and the
// sharded layout.
func TestLoadAndLayouts(t *testing.T) {
	for _, shards := range []int{1, 3} {
		b := NewBuilderWithConfig(BuilderConfig{Shards: shards})
		if err := b.Load(strings.NewReader("a p b\nb p c\nc p a\n")); err != nil {
			t.Fatal(err)
		}
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		n, err := db.Count("a", "p+", "?y")
		if err != nil || n != 3 {
			t.Fatalf("%d shards: p+ from a gives %d, want 3", shards, n)
		}
	}
}

func TestClone(t *testing.T) {
	db := metroDB(t)
	clone := db.Clone()
	done := make(chan error, 2)
	for _, d := range []*DB{db, clone} {
		d := d
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := d.Query("Baquedano", "l5+/bus", "?y"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
