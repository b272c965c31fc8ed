package ringrpq

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ringrpq/internal/service"
)

func TestSubscribeBasic(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "p", "b")
	b.Add("b", "p", "c")
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sub, err := db.Subscribe(SubscribeRequest{Expr: "p+", Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	d, ok, err := sub.TryNext()
	if err != nil || !ok {
		t.Fatalf("baseline delta: ok=%v err=%v", ok, err)
	}
	if len(d.Added) != 3 { // (a,b) (a,c) (b,c)
		t.Fatalf("baseline added = %v", d.Added)
	}

	if _, err := db.Apply(context.Background(), []Triple{{"c", "p", "d"}}, nil); err != nil {
		t.Fatal(err)
	}
	db.SyncStanding()
	d, ok, err = sub.TryNext()
	if err != nil || !ok {
		t.Fatalf("delta after add: ok=%v err=%v", ok, err)
	}
	want := []Pair{
		{Subject: "a", Object: "d"},
		{Subject: "b", Object: "d"},
		{Subject: "c", Object: "d"},
	}
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].Subject < d.Added[j].Subject })
	if len(d.Added) != 3 || len(d.Removed) != 0 {
		t.Fatalf("delta after add = %+v", d)
	}
	for i, p := range want {
		if d.Added[i] != p {
			t.Fatalf("delta after add = %v, want %v", d.Added, want)
		}
	}

	if _, err := db.Apply(context.Background(), nil, []Triple{{"b", "p", "c"}}); err != nil {
		t.Fatal(err)
	}
	db.SyncStanding()
	d, ok, err = sub.TryNext()
	if err != nil || !ok {
		t.Fatalf("delta after del: ok=%v err=%v", ok, err)
	}
	if len(d.Added) != 0 || len(d.Removed) != 4 {
		// removed: (a,c) (a,d) (b,c) (b,d)
		t.Fatalf("delta after del = %+v", d)
	}

	st := db.Stats().Standing
	if st.Active != 1 || st.Deltas != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// buildLineDB builds a small database with a p-labeled chain.
func buildLineDB(t *testing.T, n int) *DB {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("v%d", i), "p", fmt.Sprintf("v%d", i+1))
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSubscribeStartVersionStable: StartVersion is the activation cut
// and must not drift as the worker's batch cursor advances — the HTTP
// subscribe handler hands it out as the initial resume cursor, and a
// cursor that jumps ahead with processed batches would skip the queued
// deltas on reconnect.
func TestSubscribeStartVersionStable(t *testing.T) {
	db := buildLineDB(t, 3)
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	start := sub.StartVersion()

	for i := 0; i < 3; i++ {
		if _, err := db.Apply(context.Background(), []Triple{{fmt.Sprintf("s%d", i), "p", "t"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	db.SyncStanding()
	if got := sub.StartVersion(); got != start {
		t.Fatalf("StartVersion drifted to %d, want %d", got, start)
	}
	for {
		d, ok, err := sub.TryNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if d.Version <= start {
			t.Fatalf("delta version %d <= StartVersion %d", d.Version, start)
		}
	}
}

// TestResumeAtDataVersionBeforeSync: a client that received a delta for
// version N can reconnect before the registry worker has drained the
// notice queue, so the future-version check must be bounded by the
// host's current data version, not just the worker's processed version.
func TestResumeAtDataVersionBeforeSync(t *testing.T) {
	db := buildLineDB(t, 3)
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := 0; i < 4; i++ {
		if _, err := db.Apply(context.Background(), []Triple{{fmt.Sprintf("r%d", i), "p", "t"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately no SyncStanding: the registry may lag DataVersion.
	if _, err := db.ResumeSubscription(sub.ID(), db.DataVersion()); err != nil {
		t.Fatalf("resume at current data version: %v", err)
	}
}

func TestSubscribeLagAndResume(t *testing.T) {
	db := buildLineDB(t, 3)
	db.SetStandingConfig(StandingConfig{History: 4})
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p", QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := sub.StartVersion()

	// Four non-empty deltas against a queue of two: versions start+1,
	// start+2 queue, start+3 and start+4 overflow into history.
	for i := 0; i < 4; i++ {
		if _, err := db.Apply(context.Background(), []Triple{{fmt.Sprintf("a%d", i), "p", "b"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	db.SyncStanding()

	var last uint64
	for i := 0; i < 2; i++ {
		d, ok, err := sub.TryNext()
		if !ok || err != nil {
			t.Fatalf("drain %d: ok=%v err=%v", i, ok, err)
		}
		last = d.Version
	}
	if _, _, err := sub.TryNext(); !errors.Is(err, ErrSubscriberLagged) {
		t.Fatalf("after overflow: err=%v, want ErrSubscriberLagged", err)
	}
	st := db.Stats().Standing
	if st.Lagged != 1 || st.Overflows != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Resume from the last seen version replays the dropped deltas.
	if _, err := db.ResumeSubscription(sub.ID(), last); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got := 0
	for {
		d, ok, err := sub.TryNext()
		if err != nil {
			t.Fatalf("after resume: %v", err)
		}
		if !ok {
			break
		}
		if d.Version <= last {
			t.Fatalf("replayed stale version %d <= %d", d.Version, last)
		}
		got++
	}
	if got != 2 {
		t.Fatalf("replayed %d deltas, want 2", got)
	}

	// Edge cases: future version, too-old version, unknown id.
	if _, err := db.ResumeSubscription(sub.ID(), start+99); !errors.Is(err, ErrResumeFuture) {
		t.Fatalf("future resume: %v", err)
	}
	for i := 0; i < 5; i++ { // push the history floor past start
		if _, err := db.Apply(context.Background(), []Triple{{fmt.Sprintf("c%d", i), "p", "b"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	db.SyncStanding()
	if _, err := db.ResumeSubscription(sub.ID(), start); !errors.Is(err, ErrResumeTooOld) {
		t.Fatalf("too-old resume: %v", err)
	}
	if _, err := db.ResumeSubscription(999, start); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("unknown resume: %v", err)
	}

	sub.Close()
	if _, _, err := sub.TryNext(); err == nil {
		// Queued replays drain first; after that the terminal error
		// surfaces.
		for {
			_, ok, err := sub.TryNext()
			if err != nil {
				break
			}
			if !ok {
				t.Fatal("closed subscription returned no terminal error")
			}
		}
	}
	if db.Unsubscribe(sub.ID()) {
		t.Fatal("Unsubscribe found a closed subscription")
	}
}

func TestSubscribeUnknownPredicateAndCompaction(t *testing.T) {
	db := buildLineDB(t, 4)
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p+"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// A compaction swap advances the version without data changes: no
	// delta, but the registry's cursor must move.
	if _, err := db.Apply(context.Background(), []Triple{{"x", "p", "y"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ver := db.SyncStanding()
	if ver != db.DataVersion() {
		t.Fatalf("registry at version %d, data at %d", ver, db.DataVersion())
	}
	if _, err := db.ResumeSubscription(sub.ID(), ver); err != nil {
		t.Fatalf("resume at swap version: %v", err)
	}
}

// TestServiceSubscribeCloseStress closes the service while subscribers
// block in Next and updates are in flight: every consumer must unblock
// deterministically (no goroutine leaks), and late subscribes must
// fail closed.
func TestServiceSubscribeCloseStress(t *testing.T) {
	db := buildLineDB(t, 8)
	svc := NewService(db, ServiceConfig{Workers: 4})

	const subscribers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < subscribers; i++ {
		sub, err := svc.s.Subscribe(SubscribeRequest{Expr: "p+", Snapshot: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// StartVersion is read from consumer goroutines while
				// the worker applies batches; it must be race-free.
				_ = sub.StartVersion()
				_, err := sub.Next(context.Background())
				if err != nil {
					if errors.Is(err, ErrSubscriberLagged) {
						if _, rerr := svc.s.ResumeSubscription(sub.ID(), 0); rerr != nil {
							return
						}
						continue
					}
					return
				}
			}
		}()
	}
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				adds := []Triple{{fmt.Sprintf("u%d_%d", u, i), "p", "v0"}}
				if _, err := db.Apply(context.Background(), adds, nil); err != nil {
					return
				}
			}
		}(u)
	}

	time.Sleep(30 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("subscribers or updaters still blocked 10s after Close")
	}
	if _, err := svc.s.Subscribe(SubscribeRequest{Expr: "p"}); err == nil {
		t.Fatal("Subscribe succeeded after Close")
	}
}

// TestServiceCloseSubscriptions checks the shutdown-sequencing surface:
// CloseSubscriptions unblocks consumers and fails later subscribes
// closed while the worker pool keeps answering queries — the state a
// graceful HTTP shutdown needs between ending /subscribe streams and
// draining the last request-scoped connections.
func TestServiceCloseSubscriptions(t *testing.T) {
	db := buildLineDB(t, 4)
	svc := NewService(db, ServiceConfig{Workers: 2})
	defer svc.Close()

	sub, err := svc.s.Subscribe(SubscribeRequest{Expr: "p+"})
	if err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() {
		_, err := sub.Next(context.Background())
		unblocked <- err
	}()

	svc.CloseSubscriptions()
	select {
	case err := <-unblocked:
		if !errors.Is(err, ErrSubscriptionClosed) {
			t.Fatalf("Next after CloseSubscriptions: %v, want ErrSubscriptionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked 5s after CloseSubscriptions")
	}
	if _, err := svc.s.Subscribe(SubscribeRequest{Expr: "p"}); err == nil {
		t.Fatal("Subscribe succeeded after CloseSubscriptions")
	}

	// The pool is untouched: queries still run.
	sols, err := svc.Query(context.Background(), "v0", "p+", "?y", WithLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 4 {
		t.Fatalf("query after CloseSubscriptions: %d solutions, want 4", len(sols))
	}
}

func TestSubscribeHTTPLongPoll(t *testing.T) {
	db := buildLineDB(t, 3)
	svc := NewService(db, ServiceConfig{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler(HandlerConfig{}))
	defer srv.Close()

	get := func(url string) service.SubscribeResultJSON {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var out service.SubscribeResultJSON
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Register with the current result as the first delta.
	first := get(srv.URL + "/subscribe?expr=p%2B&mode=poll&snapshot=true&wait=2s")
	if first.ID == 0 || len(first.Deltas) != 1 || len(first.Deltas[0].Added) != 6 {
		t.Fatalf("first poll = %+v", first)
	}

	// Apply an update, then poll again with the returned cursor.
	if _, err := db.Apply(context.Background(), []Triple{{"v3", "p", "v4"}}, nil); err != nil {
		t.Fatal(err)
	}
	db.SyncStanding()
	next := get(fmt.Sprintf("%s/subscribe?id=%d&from=%d&mode=poll&wait=2s", srv.URL, first.ID, first.Version))
	if len(next.Deltas) != 1 || len(next.Deltas[0].Added) == 0 {
		t.Fatalf("second poll = %+v", next)
	}

	// Bad resumes map to distinct statuses.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{fmt.Sprintf("%s/subscribe?id=%d&from=%d&mode=poll", srv.URL, first.ID, next.Version+50), http.StatusConflict},
		{fmt.Sprintf("%s/subscribe?id=999&from=0&mode=poll", srv.URL), http.StatusNotFound},
		{srv.URL + "/subscribe?mode=poll", http.StatusBadRequest},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}

	// DELETE terminates the subscription; a later resume 404s/410s.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/subscribe?id=%d", srv.URL, first.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/subscribe?id=%d&from=%d&mode=poll", srv.URL, first.ID, next.Version))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resume after DELETE: status %d", resp.StatusCode)
	}
}

func TestSubscribeHTTPSSE(t *testing.T) {
	db := buildLineDB(t, 3)
	svc := NewService(db, ServiceConfig{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler(HandlerConfig{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/subscribe?expr=p&snapshot=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	type event struct{ name, data string }
	events := make(chan event, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var cur event
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.name != "":
				events <- cur
				cur = event{}
			}
		}
		close(events)
	}()
	wait := func(name string) event {
		t.Helper()
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					t.Fatalf("stream ended waiting for %q", name)
				}
				if ev.name == name {
					return ev
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no %q event within 5s", name)
			}
		}
	}

	ready := wait("ready")
	var rd service.SubscribeResultJSON
	if err := json.Unmarshal([]byte(ready.data), &rd); err != nil {
		t.Fatal(err)
	}
	if rd.ID == 0 {
		t.Fatalf("ready = %+v", rd)
	}
	base := wait("delta") // the snapshot baseline
	var d0 service.DeltaJSON
	if err := json.Unmarshal([]byte(base.data), &d0); err != nil {
		t.Fatal(err)
	}
	if len(d0.Added) != 3 {
		t.Fatalf("baseline delta = %+v", d0)
	}

	if _, err := db.Apply(context.Background(), []Triple{{"x", "p", "y"}}, nil); err != nil {
		t.Fatal(err)
	}
	ev := wait("delta")
	var d1 service.DeltaJSON
	if err := json.Unmarshal([]byte(ev.data), &d1); err != nil {
		t.Fatal(err)
	}
	if len(d1.Added) != 1 || d1.Added[0].Subject != "x" {
		t.Fatalf("delta = %+v", d1)
	}
}
