package ringrpq

// The server-wide write timeout (slowloris protection in rpqd) must not
// kill /subscribe: the SSE handler clears its connection's write
// deadline and the poll handler extends it past the wait window, so
// streams and long polls outlive http.Server.WriteTimeout.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSubscribeOutlivesServerWriteTimeout(t *testing.T) {
	db := buildLineDB(t, 3)
	svc := NewService(db, ServiceConfig{Workers: 2})
	defer svc.Close()
	ts := httptest.NewUnstartedServer(svc.Handler(HandlerConfig{}))
	ts.Config.WriteTimeout = 250 * time.Millisecond
	ts.Start()
	defer ts.Close()

	t.Run("sse", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/subscribe?expr=p")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		// A watchdog unblocks the reads if the stream wedges.
		watchdog := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
		defer watchdog.Stop()
		r := bufio.NewReader(resp.Body)
		waitEvent := func(name string) {
			t.Helper()
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("stream died waiting for %q: %v", name, err)
				}
				if strings.TrimSpace(line) == "event: "+name {
					return
				}
			}
		}
		waitEvent("ready")

		// Idle well past the server's write deadline, then update: the
		// delta must still arrive on the same connection.
		time.Sleep(3 * ts.Config.WriteTimeout)
		if _, err := db.Apply(context.Background(), []Triple{{"x0", "p", "x1"}}, nil); err != nil {
			t.Fatal(err)
		}
		waitEvent("delta")
	})

	t.Run("poll", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/subscribe?expr=p&mode=poll&wait=50ms")
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			ID      uint64 `json:"id"`
			Version uint64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		// An empty poll round holds the connection for the full wait —
		// four times the server's write deadline — and must still
		// answer 200.
		wait := 4 * ts.Config.WriteTimeout
		start := time.Now()
		resp, err = http.Get(fmt.Sprintf("%s/subscribe?id=%d&from=%d&mode=poll&wait=%s", ts.URL, sub.ID, sub.Version, wait))
		if err != nil {
			t.Fatalf("long poll: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("long poll status = %d", resp.StatusCode)
		}
		if elapsed := time.Since(start); elapsed < wait-100*time.Millisecond {
			t.Fatalf("poll returned after %v, want ~%v (empty round)", elapsed, wait)
		}
	})
}
