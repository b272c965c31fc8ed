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

func orgDB(t *testing.T, shards int) *DB {
	t.Helper()
	b := NewBuilderWithConfig(BuilderConfig{Shards: shards})
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
	db := orgDB(t, 0)
	vars, rows, err := db.Select(
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

	// Unprojected bindings include every variable.
	bs, err := db.QueryPattern("?e assigned ?p . ?p status active")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("bindings: %v", bs)
	}
	for _, b := range bs {
		if b["p"] != "apollo" || (b["e"] != "cleo" && b["e"] != "erin") {
			t.Fatalf("binding %v", b)
		}
	}
}

func TestQueryPatternOptionsAndErrors(t *testing.T) {
	db := orgDB(t, 0)
	if err := ParseQuery("?x manages ?y"); err != nil {
		t.Fatal(err)
	}
	if err := ParseQuery("?x ((bad ?y"); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := db.QueryPattern("?x ((bad ?y"); err == nil {
		t.Fatal("bad pattern accepted by QueryPattern")
	}

	bs, err := db.QueryPattern("?m manages* ?e", WithLimit(3))
	if err != nil || len(bs) != 3 {
		t.Fatalf("limit: %d bindings, err=%v", len(bs), err)
	}

	// Select's limit caps distinct projected rows, not raw bindings.
	_, rows, err := db.Select("SELECT ?p WHERE { ?e assigned ?p }", WithLimit(1))
	if err != nil || len(rows) != 1 {
		t.Fatalf("select limit: %v err=%v", rows, err)
	}

	err = db.QueryPatternFunc("?m manages+ ?e . ?e manages* ?z", func(Binding) bool {
		time.Sleep(time.Millisecond)
		return true
	}, WithTimeout(time.Nanosecond))
	if !errors.Is(err, ErrTimeout) && err != nil {
		// A nanosecond deadline may fire before any row; both ErrTimeout
		// and a clean empty result would betray a broken propagation,
		// so only ErrTimeout or nil-with-zero-rows are acceptable; the
		// sleep above makes ErrTimeout overwhelmingly likely.
		t.Fatalf("timeout: %v", err)
	}
}

func TestQueryPatternSharded(t *testing.T) {
	single := orgDB(t, 0)
	db := orgDB(t, 4)
	if db.Shards() < 2 {
		t.Skip("graph too small to shard")
	}
	// Single-predicate patterns route to one shard on any layout.
	src := "?m manages+ ?e . ?m manages ?e"
	w1, r1, err := single.Select(src)
	if err != nil {
		t.Fatal(err)
	}
	w2, r2, err := db.Select(src)
	if err != nil {
		// The hash partitioner may co-locate everything; only a
		// genuinely cross-shard routing may error, and then with the
		// typed error.
		if !errors.Is(err, ErrCrossShard) {
			t.Fatalf("sharded: %v", err)
		}
		t.Fatal("single-predicate pattern must never be cross-shard")
	}
	SortRows(r1)
	SortRows(r2)
	if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("sharded mismatch: %v/%v vs %v/%v", w1, r1, w2, r2)
	}

	// A multi-predicate pattern either routes (co-located) or fails
	// with the typed cross-shard error — never a wrong answer.
	_, r3, err := db.Select("SELECT ?m WHERE { ?m manages ?e . ?e assigned ?p }")
	if err != nil {
		if !errors.Is(err, ErrCrossShard) {
			t.Fatalf("unexpected error: %v", err)
		}
	} else {
		_, r4, _ := single.Select("SELECT ?m WHERE { ?m manages ?e . ?e assigned ?p }")
		SortRows(r3)
		SortRows(r4)
		if !reflect.DeepEqual(r3, r4) {
			t.Fatalf("sharded rows %v, single %v", r3, r4)
		}
	}
}

func TestQueryPatternAfterSaveLoadAndClone(t *testing.T) {
	db := orgDB(t, 0)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{loaded, db.Clone()} {
		_, rows, err := d.Select("SELECT ?e WHERE { ana manages+ ?e . ?e assigned apollo }")
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
	db := orgDB(t, 0)
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

func TestExplainPattern(t *testing.T) {
	db := orgDB(t, 0)
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
	active, err := db.QueryPattern("?p status active")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Order[0] != "p" || pl.Estimates[0] != float64(len(active)) ||
		pl.Triples[1] != (TriplePlan{Pattern: "?p status active", Rotation: "o→p→s"}) ||
		pl.Triples[0] != (TriplePlan{Pattern: "?p ^assigned ?e", Inverted: true, Rotation: "p→s→o"}) {
		t.Fatalf("anchored plan = %+v (%d active)", pl, len(active))
	}
}
