package ringrpq

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"ringrpq/internal/pathexpr"
)

// TestHandlerAfterClose drives every request route of a closed
// DB-backed Service through its handler: single requests answer 503
// with the closed error, a batch answers 200 with the error on each
// item, and the probes tell liveness from readiness.
func TestHandlerAfterClose(t *testing.T) {
	svc := NewService(buildLineDB(t, 3), ServiceConfig{Workers: 1})
	h := svc.Handler(HandlerConfig{})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	closed := ErrServiceClosed.Error()

	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/query", `{"expr":"p+"}`},
		{"POST", "/select", `{"query":"?x p ?y"}`},
		{"POST", "/update", `{"add":[{"s":"v0","p":"p","o":"v9"}]}`},
		{"GET", "/subscribe?expr=p%2B", ""},
		{"GET", "/subscribe?expr=p&mode=poll", ""},
	} {
		rec := serve(tc.method, tc.path, tc.body)
		var out struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Errorf("%s %s: %v in %q", tc.method, tc.path, err, rec.Body)
		}
		if rec.Code != 503 || out.Error != closed {
			t.Errorf("%s %s = %d %q, want 503 %q", tc.method, tc.path, rec.Code, out.Error, closed)
		}
	}

	rec := serve("POST", "/batch", `{"queries":[{"expr":"p"},{"expr":"p+","count":true}]}`)
	var batch struct{ Results []struct{ Error string } }
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatalf("POST /batch: %v in %q", err, rec.Body)
	}
	if rec.Code != 200 || len(batch.Results) != 2 {
		t.Fatalf("POST /batch = %d with %d results, want 200 with 2", rec.Code, len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Error != closed {
			t.Errorf("POST /batch item %d error %q, want %q", i, r.Error, closed)
		}
	}

	if rec := serve("GET", "/healthz", ""); rec.Code != 200 {
		t.Errorf("GET /healthz = %d, want 200", rec.Code)
	}
	if rec := serve("GET", "/readyz", ""); rec.Code != 503 {
		t.Errorf("GET /readyz = %d, want 503", rec.Code)
	}
}

// TestExpressionWidthLimit: expressions are bounded where they are
// parsed. pathexpr.MaxPositions positions are accepted; one more is
// rejected by ParseExpr, by DB.Query, and by /query, /select and
// /subscribe with a 400.
func TestExpressionWidthLimit(t *testing.T) {
	db := buildLineDB(t, 3)
	narrow := strings.Repeat("p?/", pathexpr.MaxPositions-1) + "p"
	wide := "p?/" + narrow
	if err := ParseExpr(narrow); err != nil {
		t.Fatalf("ParseExpr(%d positions): %v", pathexpr.MaxPositions, err)
	}
	if err := ParseExpr(wide); err == nil {
		t.Fatalf("ParseExpr accepts %d positions", pathexpr.MaxPositions+1)
	}
	if _, err := db.Query(context.Background(), "?x", wide, "?y"); err == nil {
		t.Fatal("Query accepts an expression past the position bound")
	}

	svc := NewService(db, ServiceConfig{Workers: 1})
	defer svc.Close()
	h := svc.Handler(HandlerConfig{})
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/query", `{"expr":"` + narrow + `"}`, 200},
		{"POST", "/query", `{"expr":"` + wide + `"}`, 400},
		{"POST", "/select", `{"query":"?x ` + wide + ` ?y"}`, 400},
		{"GET", "/subscribe?expr=" + url.QueryEscape(wide), "", 400},
		{"GET", "/subscribe?mode=poll&expr=" + url.QueryEscape(wide), "", 400},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d %s, want %d", tc.method, tc.path[:min(len(tc.path), 24)], rec.Code, rec.Body, tc.want)
		}
	}
}
