package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestBodyIsOneBoundedValue: every endpoint that decodes a JSON body
// reads it to its end. Trailing data after the first value, a second
// value included, is a 400; a body past MaxBodyBytes is a 413 however
// small its first value; trailing whitespace is fine.
func TestBodyIsOneBoundedValue(t *testing.T) {
	s := newTestService(t, &wireFake{names: []string{"o"}, n: 2}, Config{Workers: 1})
	h := NewHandler(s, HandlerConfig{})
	pad := strings.Repeat(" ", 10<<20) // past the default 8 MiB bound
	for _, ep := range []struct{ path, body string }{
		{"/query", `{"subject":"s","expr":"a"}`},
		{"/select", `{"query":"?x p ?y"}`},
		{"/batch", `{"queries":[{"expr":"a"}]}`},
		{"/update", `{"add":[{"s":"a","p":"b","o":"c"}]}`},
	} {
		for _, tc := range []struct {
			name string
			rest io.Reader
			want int
		}{
			{"whitespace", strings.NewReader(" \n\t\r "), http.StatusOK},
			{"garbage", strings.NewReader(" garbage"), http.StatusBadRequest},
			{"second value", strings.NewReader(`{"expr":"zzz"}`), http.StatusBadRequest},
			{"oversize", strings.NewReader(pad), http.StatusRequestEntityTooLarge},
		} {
			t.Run(ep.path[1:]+"/"+tc.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", ep.path, io.MultiReader(strings.NewReader(ep.body), tc.rest)))
				if rec.Code != tc.want {
					t.Fatalf("status %d, want %d: %.200s", rec.Code, tc.want, rec.Body)
				}
			})
		}
	}
}

// decodeLikeHandler runs decodeBody over body into a fresh T.
func decodeLikeHandler[T any](body []byte) (T, error) {
	var v T
	h := &handler{cfg: HandlerConfig{MaxBodyBytes: 8 << 20}}
	err := h.decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(string(body))), &v)
	return v, err
}

// checkDecode holds decodeBody and the scanner to json.Unmarshal for
// one request type: a body the scanner accepts decodes to the struct
// Unmarshal makes of it, and any body decodes to Unmarshal's struct or
// fails with Unmarshal's error.
func checkDecode[T any](t *testing.T, body []byte) {
	var want T
	wantErr := json.Unmarshal(body, &want)
	var scanned T
	if scanRequest(body, &scanned) {
		if wantErr != nil || !reflect.DeepEqual(scanned, want) {
			t.Fatalf("%T from %q: scanned %+v, json.Unmarshal made %+v (%v)", want, body, scanned, want, wantErr)
		}
	} else if !reflect.DeepEqual(scanned, *new(T)) {
		t.Fatalf("%T from %q: the scanner declined but left %+v", want, body, scanned)
	}
	got, err := decodeLikeHandler[T](body)
	switch {
	case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
		t.Fatalf("%T from %q: decodeBody said %v, json.Unmarshal %v", want, body, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T from %q: decoded %+v, json.Unmarshal made %+v", want, body, got, want)
	}
}

// decodeSeeds are FuzzDecodeRequest's seeds: the bodies the benchmark
// harness sends, with and without a profile, and the shapes the scanner
// must leave to json.Unmarshal.
var decodeSeeds = []string{
	`{"subject":"Q12","expr":"P3/P7*","object":"","limit":1000,"timeout":"2s"}`,
	`{"subject":"Q12","expr":"P3/P7*","object":"","limit":1000,"timeout":"2s","profile":true}`,
	`{"query":"?x P1 Q3 . ?x P2 ?y","limit":1000,"timeout":"2s"}`,
	`{"query":"?x P1 Q3 . ?x P2 ?y","limit":1000,"timeout":"2s","profile":true}`,
	` { "expr" : "a" , "count" : false } `,
	`{"expr":"a\"b","subject":"Q"}`,
	`{"expr":"a\/b"}`,
	`{"expr":"żółć","query":"日本"}`,
	"{\"expr\":\"a\x7f\"}",
	"{\"expr\":\"a\tb\"}",
	`{"Subject":"s","expr":"a","QUERY":"q"}`,
	`{"expr":"a","expr":"b"}`,
	`{"limit":5,"limit":null}`,
	`{"expr":null,"limit":null,"count":null}`,
	`{"limit":-0}`, `{"limit":01}`, `{"limit":1e3}`, `{"limit":1.0}`, `{"limit":-}`,
	`{"limit":9223372036854775807}`, `{"limit":9223372036854775808}`,
	`{"limit":-9223372036854775808}`, `{"limit":-9223372036854775809}`,
	`{"limit":"5"}`, `{"count":"true"}`, `{"count":1}`, `{"profile":truex}`,
	`{"expr":"a"} garbage`, `{"expr":"a"}{"expr":"zzz"}`, `{"expr":"a"}` + "\n",
	`{}`, `{ }`, `{`, `}`, ``, ` `, `null`, `[]`, `"x"`, `{"expr":"a",}`, `{,}`,
	`{"unknown":1,"expr":"a"}`, `{"count":true,"profile":false,"timeout":"","object":"?o"}`,
}

// FuzzDecodeRequest is the differential test of the request scanner
// against json.Unmarshal, for both request types it reads.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[QueryJSON](t, body)
		checkDecode[SelectJSON](t, body)
	})
}

// TestScanRequestTakesThePlainShape: the bodies clients send are read
// by the scanner, not by json.Unmarshal, and the scanner allocates only
// the strings and the limit it returns.
func TestScanRequestTakesThePlainShape(t *testing.T) {
	for _, body := range decodeSeeds[:5] {
		var q QueryJSON
		var p SelectJSON
		if !scanRequest([]byte(body), &q) && !scanRequest([]byte(body), &p) {
			t.Errorf("the scanner declined %s", body)
		}
	}
	if raceEnabled {
		return
	}
	body := []byte(`{"subject":"Q1","expr":"P1/P2*","object":"","limit":1000,"timeout":"2s"}`)
	var q QueryJSON
	// Three strings (the empty one is none) and the limit.
	if allocs := testing.AllocsPerRun(100, func() { scanRequest(body, &q) }); allocs > 4 {
		t.Errorf("scanning a plain body allocates %v objects, want at most 4", allocs)
	}
}
