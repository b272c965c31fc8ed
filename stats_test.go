package ringrpq

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"

	"ringrpq/internal/wal"
)

// statsKeyPaths lists every JSON key path GET /stats served over a
// durable database with one subscription and one applied batch. The
// benchmark's rpqload (bench/load.ServerStats) decodes index.index.*,
// index.updates.*, service.WAL.* and the cache counters by name, and
// dashboards read the rest: a path may be added, and removed only with
// a retired field that rpqload does not decode.
var statsKeyPaths = []string{
	"index.durability.AppendedBytes", "index.durability.Appended",
	"index.durability.CheckpointErrors", "index.durability.Checkpoints",
	"index.durability.Dir", "index.durability.Enabled",
	"index.durability.FsyncPolicy", "index.durability.Fsyncs",
	"index.durability.LastCheckpointVersion", "index.durability.Replayed",
	"index.durability.Segments", "index.durability.SizeBytes",
	"index.durability.TornBytes", "index.durability.WedgeReason",
	"index.durability.Wedged",
	"index.index.CompletedEdges", "index.index.Edges",
	"index.index.IndexBytes", "index.index.Nodes", "index.index.Predicates",
	"index.updates.Compacting", "index.updates.Compactions",
	"index.updates.DataVersion", "index.updates.Epoch",
	"index.updates.LastCheckpoint", "index.updates.LastCompaction",
	"index.updates.LastSwapPause", "index.updates.OverlayEdges",
	"index.updates.PinnedSnapshots", "index.updates.Tombstones",
	"service.Batches", "service.Cancelled", "service.Completed",
	"service.Errors",
	"service.GC.CPUSeconds", "service.GC.Cycles",
	"service.GC.HeapLiveBytes", "service.GC.MemoryLimitBytes",
	"service.EvalLatency.Count", "service.EvalLatency.MaxMS",
	"service.EvalLatency.MeanMS", "service.EvalLatency.P50MS",
	"service.EvalLatency.P90MS", "service.EvalLatency.P95MS",
	"service.EvalLatency.P99MS",
	"service.ExprEntries", "service.ExprHits", "service.ExprMisses",
	"service.Hits", "service.Inflight",
	"service.Latency.Count", "service.Latency.MaxMS",
	"service.Latency.MeanMS", "service.Latency.P50MS",
	"service.Latency.P90MS", "service.Latency.P95MS",
	"service.Latency.P99MS",
	"service.Misses", "service.Panics", "service.PatternEntries",
	"service.PatternHits", "service.PatternMisses", "service.QueueCap",
	"service.QueueLen", "service.QueueWaitNS", "service.Rejected",
	"service.Requests", "service.ResultBytes", "service.ResultEntries",
	"service.ResultEvictions", "service.ResultInvalidations",
	"service.SlowQueries",
	"service.Standing.Active", "service.Standing.Batches",
	"service.Standing.Deltas", "service.Standing.Detached",
	"service.Standing.FullReevals", "service.Standing.Incremental",
	"service.Standing.Lagged", "service.Standing.Overflows",
	"service.Standing.Skipped",
	"service.Standing.Version",
	"service.Timeouts", "service.Updates",
	"service.WAL.AppendedBytes", "service.WAL.Appended",
	"service.WAL.CheckpointErrors", "service.WAL.Checkpoints",
	"service.WAL.Dir", "service.WAL.Enabled", "service.WAL.FsyncPolicy",
	"service.WAL.Fsyncs", "service.WAL.LastCheckpointMS",
	"service.WAL.LastCheckpointVersion", "service.WAL.Replayed",
	"service.WAL.Segments", "service.WAL.SizeBytes",
	"service.WAL.TornBytes", "service.WAL.WedgeReason",
	"service.WAL.Wedged",
	"service.Workers",
}

// TestStatsKeyPaths serves GET /stats through Service.Handler over a
// durable database (in memory) with one subscription and one applied
// batch, and checks that every path of statsKeyPaths is in the body.
// Paths beyond the list are logged.
func TestStatsKeyPaths(t *testing.T) {
	db, err := openDurable(WALConfig{Dir: "stats", Fsync: "always"}, buildCrashSeed, wal.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	svc := NewService(db, ServiceConfig{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	sub, err := svc.s.Subscribe(SubscribeRequest{Subject: "n0", Expr: "p0/p0*"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := db.Apply(ctx, []Triple{{"n1", "p0", "n3"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(ctx, "n0", "p0+", "?y"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(svc.Handler(HandlerConfig{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			got[prefix] = true
			return
		}
		for k, c := range m {
			if prefix != "" {
				k = prefix + "." + k
			}
			walk(k, c)
		}
	}
	walk("", body)
	for _, p := range statsKeyPaths {
		if !got[p] {
			t.Errorf("GET /stats lacks %s", p)
		}
		delete(got, p)
	}
	var extra []string
	for p := range got {
		extra = append(extra, p)
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Logf("paths beyond the pinned set: %v", extra)
	}
}
