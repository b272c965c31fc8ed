package ringrpq

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func orgDB(t *testing.T) *DB {
	t.Helper()
	b := NewBuilder()
	b.Add("ana", "manages", "bo")
	b.Add("bo", "manages", "cleo")
	b.Add("bo", "manages", "dmitri")
	b.Add("ana", "manages", "erin")
	b.Add("cleo", "assigned", "apollo")
	b.Add("dmitri", "assigned", "zephyr")
	b.Add("erin", "assigned", "apollo")
	b.Add("apollo", "status", "active")
	b.Add("zephyr", "status", "archived")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryPatternEndToEnd(t *testing.T) {
	db := orgDB(t)
	vars, rows, err := db.Select(context.Background(),
		"SELECT ?m ?proj WHERE { ?m manages+ ?e . ?e assigned ?proj . ?proj status active }")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vars, []string{"m", "proj"}) {
		t.Fatalf("vars = %v", vars)
	}
	SortRows(rows)
	want := [][]string{{"ana", "apollo"}, {"bo", "apollo"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}

	// Without a SELECT list every variable is projected, in order of
	// first appearance.
	vars, rows, err = db.Select(context.Background(), "?e assigned ?p . ?p status active")
	if err != nil {
		t.Fatal(err)
	}
	SortRows(rows)
	want = [][]string{{"cleo", "apollo"}, {"erin", "apollo"}}
	if !reflect.DeepEqual(vars, []string{"e", "p"}) || !reflect.DeepEqual(rows, want) {
		t.Fatalf("vars %v rows %v, want [e p] %v", vars, rows, want)
	}
}

func TestQueryPatternOptionsAndErrors(t *testing.T) {
	db := orgDB(t)
	if err := ParseQuery("?x manages ?y"); err != nil {
		t.Fatal(err)
	}
	if err := ParseQuery("?x ((bad ?y"); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, _, err := db.Select(context.Background(), "?x ((bad ?y"); err == nil {
		t.Fatal("bad pattern accepted by Select")
	}

	_, rows, err := db.Select(context.Background(), "?m manages* ?e", WithLimit(3))
	if err != nil || len(rows) != 3 {
		t.Fatalf("limit: %d rows, err=%v", len(rows), err)
	}

	// Select's limit caps distinct projected rows, not raw bindings.
	_, rows, err = db.Select(context.Background(), "SELECT ?p WHERE { ?e assigned ?p }", WithLimit(1))
	if err != nil || len(rows) != 1 {
		t.Fatalf("select limit: %v err=%v", rows, err)
	}

	_, _, err = db.Select(context.Background(), "?m manages+ ?e . ?e manages* ?z", WithTimeout(time.Nanosecond))
	if !errors.Is(err, ErrTimeout) {
		// The deadline is taken when the evaluation starts and checked
		// before planning, so a nanosecond budget has always expired.
		t.Fatalf("timeout: err = %v, want ErrTimeout", err)
	}
}

func TestQueryPatternAfterSaveLoadAndClone(t *testing.T) {
	db := orgDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{loaded, db.Clone()} {
		_, rows, err := d.Select(context.Background(), "SELECT ?e WHERE { ana manages+ ?e . ?e assigned apollo }")
		if err != nil {
			t.Fatal(err)
		}
		SortRows(rows)
		if !reflect.DeepEqual(rows, [][]string{{"cleo"}, {"erin"}}) {
			t.Fatalf("rows = %v", rows)
		}
	}
}

func TestServiceSelectEndToEnd(t *testing.T) {
	db := orgDB(t)
	svc := NewService(db, ServiceConfig{Workers: 2})
	defer svc.Close()
	ctx := context.Background()

	src := "SELECT ?m ?proj WHERE { ?m manages+ ?e . ?e assigned ?proj . ?proj status active }"
	vars, rows, err := svc.Select(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	got := append([][]string{}, rows...)
	SortRows(got)
	want := [][]string{{"ana", "apollo"}, {"bo", "apollo"}}
	if !reflect.DeepEqual(vars, []string{"m", "proj"}) || !reflect.DeepEqual(got, want) {
		t.Fatalf("vars=%v rows=%v", vars, rows)
	}

	// The HTTP handler answers the same mixed BGP+RPQ query on /select.
	h := svc.Handler(HandlerConfig{DefaultLimit: 1000})
	req := httptest.NewRequest("POST", "/select", strings.NewReader(
		`{"query": "SELECT ?m ?proj WHERE { ?m manages+ ?e . ?e assigned ?proj . ?proj status active }"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Vars  []string   `json:"vars"`
		Rows  [][]string `json:"rows"`
		Count int        `json:"count"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	SortRows(out.Rows)
	if !reflect.DeepEqual(out.Vars, []string{"m", "proj"}) || !reflect.DeepEqual(out.Rows, want) || out.Count != 2 {
		t.Fatalf("http response: %+v", out)
	}

	// Stats reflect the pattern cache.
	if st := svc.Stats(); st.PatternMisses == 0 {
		t.Fatalf("pattern cache counters: %+v", st)
	}
}

// A pattern Count is the number of distinct projected rows: for a
// SELECT that projection merges and for a pattern without one, through
// the service and through POST /select, it equals len(Rows).
func TestPatternCountMatchesRows(t *testing.T) {
	db := orgDB(t)
	svc := NewService(db, ServiceConfig{Workers: 2, ResultCacheEntries: -1})
	defer svc.Close()
	h := svc.Handler(HandlerConfig{DefaultLimit: 1000})
	ctx := context.Background()
	for _, src := range []string{
		"?m manages+ ?e . ?e assigned ?proj",
		"SELECT ?proj WHERE { ?m manages+ ?e . ?e assigned ?proj }",
		"SELECT ?m WHERE { ?m manages ?e }",
	} {
		rows := svc.s.Select(ctx, Request{Pattern: src})
		count := svc.s.Select(ctx, Request{Pattern: src, Count: true})
		if rows.Err != nil || count.Err != nil {
			t.Fatalf("%q: %v / %v", src, rows.Err, count.Err)
		}
		if len(rows.Rows) == 0 || count.N != len(rows.Rows) || rows.N != len(rows.Rows) || count.Rows != nil {
			t.Fatalf("%q: count %d (rows %v), select %d rows with N %d", src, count.N, count.Rows, len(rows.Rows), rows.N)
		}
		var bodies [2]struct {
			Rows  [][]string `json:"rows"`
			Count int        `json:"count"`
		}
		for i, countOnly := range []bool{false, true} {
			body, _ := json.Marshal(map[string]any{"query": src, "count": countOnly})
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/select", bytes.NewReader(body)))
			if w.Code != 200 {
				t.Fatalf("%q count=%v: status %d: %s", src, countOnly, w.Code, w.Body)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &bodies[i]); err != nil {
				t.Fatal(err)
			}
		}
		if bodies[1].Count != len(bodies[0].Rows) || bodies[0].Count != len(rows.Rows) || bodies[1].Rows != nil {
			t.Fatalf("%q over HTTP: count %d (rows %v), select %d rows", src, bodies[1].Count, bodies[1].Rows, len(bodies[0].Rows))
		}
	}
}

func TestExplainPattern(t *testing.T) {
	db := orgDB(t)
	pl, err := db.ExplainPattern("?m manages ?e . ?e assigned+ ?p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Order) != 2 || len(pl.Estimates) != 2 || pl.PathSteps != 1 || len(pl.Triples) != 1 {
		t.Fatalf("plan = %+v", pl)
	}
	// Whichever end the order starts from, the triple is stored so that
	// it is the subject, and walked from the predicate's range.
	tp := pl.Triples[0]
	want := TriplePlan{Pattern: "?m manages ?e", Rotation: "p→s→o"}
	if pl.Order[0] == "e" {
		want = TriplePlan{Pattern: "?e ^manages ?m", Inverted: true, Rotation: "p→s→o"}
	}
	if tp != want {
		t.Fatalf("triple plan = %+v, want %+v (order %v)", tp, want, pl.Order)
	}

	// A constant end anchors its neighbour: the estimate is the exact
	// count and the walk starts from the two constants.
	pl, err = db.ExplainPattern("?e assigned ?p . ?p status active")
	if err != nil {
		t.Fatal(err)
	}
	_, active, err := db.Select(context.Background(), "?p status active")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Order[0] != "p" || pl.Estimates[0] != float64(len(active)) ||
		pl.Triples[1] != (TriplePlan{Pattern: "?p status active", Rotation: "o→p→s"}) ||
		pl.Triples[0] != (TriplePlan{Pattern: "?p ^assigned ?e", Inverted: true, Rotation: "p→s→o"}) {
		t.Fatalf("anchored plan = %+v (%d active)", pl, len(active))
	}
}
