package ringrpq

// Crash-recovery tests for the durability layer (durable.go +
// internal/wal). The property harness runs a fixed update workload
// against a fault-injected in-memory filesystem, kills the "process" at
// a random byte offset, tears the unsynced suffix the way a crash
// would, recovers, and checks the recovered database against a
// map-of-edges oracle — under fsync=always no acknowledged batch may
// ever be lost, and the recovered state must equal the oracle replayed
// to exactly the recovered version.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ringrpq/internal/pathexpr"
	"ringrpq/internal/serial"
	"ringrpq/internal/standing"
	"ringrpq/internal/wal"
)

const crashDir = "state"

func durableCfg() WALConfig {
	// Small segments so the workload rolls through several of them
	// (torn tails, truncation and multi-segment replay all get coverage).
	return WALConfig{Dir: crashDir, Fsync: "always", SegmentBytes: 2048}
}

// crashSeedTriples is the deterministic initial graph: predicates
// p0..p3 (the completed id space is fixed at build time) over a few
// nodes.
func crashSeedTriples() []Triple {
	var ts []Triple
	for p := 0; p < 4; p++ {
		ts = append(ts, Triple{"n0", fmt.Sprintf("p%d", p), "n1"})
	}
	ts = append(ts, Triple{"n1", "p0", "n2"})
	return ts
}

func buildCrashSeed() (*DB, error) {
	b := NewBuilder()
	for _, t := range crashSeedTriples() {
		b.Add(t.Subject, t.Predicate, t.Object)
	}
	return b.Build()
}

// crashOp is one workload step: an update batch or a synchronous
// compaction.
type crashOp struct {
	adds, dels []Triple
	flush      bool
}

// crashWorkload is the fixed update sequence: 26 batches interning
// fresh and repeated nodes across all four predicates, deletes that hit
// earlier adds (and one seed edge), and two compactions that checkpoint
// and truncate mid-stream.
func crashWorkload() []crashOp {
	addsOf := func(i int) []Triple {
		var adds []Triple
		for j := 0; j < 4; j++ {
			adds = append(adds, Triple{
				Subject:   fmt.Sprintf("n%d", (i*7+j*3)%40),
				Predicate: fmt.Sprintf("p%d", (i+j)%4),
				Object:    fmt.Sprintf("n%d", (i*5+j*11+1)%40),
			})
		}
		return adds
	}
	var ops []crashOp
	for i := 0; i < 28; i++ {
		if i == 9 || i == 19 {
			ops = append(ops, crashOp{flush: true})
			continue
		}
		o := crashOp{adds: addsOf(i)}
		if i > 2 {
			// Delete an edge batch i-3 added (it may have been deleted or
			// re-added since; the oracle tracks the same semantics).
			o.dels = append(o.dels, addsOf(i - 3)[0])
		}
		if i == 5 {
			o.dels = append(o.dels, Triple{"n0", "p1", "n1"})
		}
		ops = append(ops, o)
	}
	return ops
}

// tracker applies ops and records which op produced each data version,
// so the oracle can be replayed to exactly the version a recovery
// reaches. Versions absent from byVersion are compaction swaps (data
// no-ops). All applies are single-threaded, so before/after version
// reads are exact.
type tracker struct {
	db        *DB
	byVersion map[uint64]crashOp
	acked     uint64 // highest version whose Apply returned nil
	max       uint64 // highest version produced in memory
}

func (tr *tracker) apply(o crashOp) error {
	var err error
	if o.flush {
		err = tr.db.Flush()
	} else {
		before := tr.db.DataVersion()
		_, err = tr.db.Apply(context.Background(), o.adds, o.dels)
		if after := tr.db.DataVersion(); after == before+1 {
			tr.byVersion[after] = o
			if err == nil && after > tr.acked {
				tr.acked = after
			}
		}
	}
	if v := tr.db.DataVersion(); v > tr.max {
		tr.max = v
	}
	return err
}

// oracleAt replays the tracked ops onto the seed edge set up to
// version v.
func oracleAt(byVersion map[uint64]crashOp, v uint64) map[Triple]bool {
	set := map[Triple]bool{}
	for _, t := range crashSeedTriples() {
		set[t] = true
	}
	for i := uint64(1); i <= v; i++ {
		o, ok := byVersion[i]
		if !ok {
			continue // a swap: no data change
		}
		for _, t := range o.adds {
			set[t] = true
		}
		for _, t := range o.dels {
			delete(set, t)
		}
	}
	return set
}

// verifyOracle enumerates every predicate on db and compares the result
// pairs against the oracle edge set.
func verifyOracle(t *testing.T, db *DB, want map[Triple]bool) {
	t.Helper()
	for p := 0; p < 4; p++ {
		pred := fmt.Sprintf("p%d", p)
		sols, err := db.Query(context.Background(), "?x", pred, "?y")
		if err != nil {
			t.Fatalf("query %s: %v", pred, err)
		}
		got := map[string]bool{}
		for _, s := range sols {
			got[s.Subject+"\x00"+s.Object] = true
		}
		wantSet := map[string]bool{}
		for tr := range want {
			if tr.Predicate == pred {
				wantSet[tr.Subject+"\x00"+tr.Object] = true
			}
		}
		if len(got) != len(wantSet) {
			t.Fatalf("predicate %s: %d pairs, oracle has %d", pred, len(got), len(wantSet))
		}
		for k := range wantSet {
			if !got[k] {
				t.Fatalf("predicate %s: oracle pair %q missing from recovered index", pred, k)
			}
		}
	}
}

// runCrashTrial runs the workload on a fault-injected in-memory
// filesystem, kills writes after budget bytes (budget < 0: never),
// crash-cuts the unsynced tails, recovers and verifies. Returns the
// total bytes the workload wrote (the kill-point range for callers).
func runCrashTrial(t *testing.T, budget, seed int64) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	mem := wal.NewMemFS()
	ff := wal.NewFaultFS(mem)
	db, err := openDurable(durableCfg(), buildCrashSeed, ff)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.SetCompactionThreshold(-1)
	if budget >= 0 {
		ff.SetWriteBudget(budget)
	}
	tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
	for _, o := range crashWorkload() {
		tr.apply(o) //nolint:errcheck // failures past the kill point are the point
	}
	written := ff.Written()
	db.CloseWAL() //nolint:errcheck // a killed log fails its final sync

	crashed := mem.Crash(rng)
	rdb, err := openDurable(durableCfg(), buildCrashSeed, crashed)
	if err != nil {
		t.Fatalf("budget %d: recovery: %v", budget, err)
	}
	defer rdb.CloseWAL()
	v := rdb.DataVersion()
	if v < tr.acked {
		t.Fatalf("budget %d: acked version %d lost, recovered only to %d", budget, tr.acked, v)
	}
	if v > tr.max {
		t.Fatalf("budget %d: recovered version %d beyond produced %d", budget, v, tr.max)
	}
	verifyOracle(t, rdb, oracleAt(tr.byVersion, v))
	return written
}

// TestDurableCrashRecoveryProperty is the crash-recovery property
// harness: a dry run sizes the kill-point range, then 110 trials each
// kill the process at a random byte offset (plus a random tear of the
// unsynced suffix) and verify zero acked loss and oracle equality.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	total := runCrashTrial(t, -1, 0)
	if total <= 0 {
		t.Fatalf("dry run wrote %d bytes", total)
	}
	trials := 110
	if testing.Short() {
		trials = 12
	}
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		// A budget past the total exercises pure crash-tears (no kill).
		budget := 1 + rng.Int63n(total+total/8)
		runCrashTrial(t, budget, int64(i+1))
	}
}

// TestDurableRoundTrip: a clean close and reopen rebuilds the seed and
// replays the log, and the database stays writable until CloseWAL —
// after which Apply must fail rather than silently go non-durable.
func TestDurableRoundTrip(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"a", "p0", "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"b", "p0", "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	ws := db.Stats().WAL
	if !ws.Enabled || ws.Appended != 2 || ws.Fsyncs == 0 {
		t.Fatalf("wal stats = %+v", ws)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	if v := db2.DataVersion(); v != 2 {
		t.Fatalf("recovered version = %d, want 2", v)
	}
	if ws := db2.Stats().WAL; ws.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", ws.Replayed)
	}
	sols, err := db2.Query(context.Background(), "a", "p0/p0", "?y")
	if err != nil || len(sols) != 1 || sols[0].Object != "c" {
		t.Fatalf("recovered query = %v, %v", sols, err)
	}
	if _, err := db2.Apply(context.Background(), []Triple{{"c", "p0", "d"}}, nil); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Apply(context.Background(), []Triple{{"d", "p0", "e"}}, nil); err == nil {
		t.Fatal("Apply after CloseWAL must fail, not drop durability")
	}
}

// TestDurableUnknownPredicateLeavesNoTrace: a rejected batch must not
// reach the log — recovery replays exactly the acknowledged stream.
func TestDurableUnknownPredicateLeavesNoTrace(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"a", "nope", "b"}}, nil); !errors.Is(err, ErrUnknownPredicate) {
		t.Fatalf("err = %v", err)
	}
	if ws := db.Stats().WAL; ws.Appended != 0 {
		t.Fatalf("rejected batch reached the log: %+v", ws)
	}
	db.CloseWAL()
	db2, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil || db2.DataVersion() != 0 {
		t.Fatalf("recovered version = %d, err %v", db2.DataVersion(), err)
	}
	db2.CloseWAL()
}

// TestDurableCheckpointAndTruncate: Flush checkpoints the rebuilt index
// and reopening starts from the checkpoint, replaying only the suffix.
func TestDurableCheckpointAndTruncate(t *testing.T) {
	mem := wal.NewMemFS()
	cfg := durableCfg()
	cfg.SegmentBytes = 256 // roll often so truncation can drop whole segments
	db, err := openDurable(cfg, buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
	ops := crashWorkload()
	for _, o := range ops[:12] { // includes the first flush
		if err := tr.apply(o); err != nil {
			t.Fatal(err)
		}
	}
	ws := db.Stats().WAL
	if ws.Checkpoints != 1 || ws.CheckpointErrors != 0 || ws.LastCheckpointVersion == 0 {
		t.Fatalf("wal stats after flush = %+v", ws)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.ReadDir(crashDir)
	ckpts := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".rckp") {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("checkpoint files = %d (%v), want 1", ckpts, names)
	}

	db2, err := openDurable(cfg, func() (*DB, error) {
		return nil, errors.New("recovery must start from the checkpoint")
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	if v := db2.DataVersion(); v != tr.max {
		t.Fatalf("recovered version = %d, want %d", v, tr.max)
	}
	verifyOracle(t, db2, oracleAt(tr.byVersion, tr.max))
	// The truncated log replays strictly less than the full stream.
	if ws := db2.Stats().WAL; ws.Replayed >= int64(tr.max) {
		t.Fatalf("replayed %d records for %d versions: truncation did not happen", ws.Replayed, tr.max)
	}
}

var compactStages = []string{"base-selected", "rebuilt", "residual", "swapped", "checkpointed", "truncated"}

// TestDurableCompactionStageInterleave applies one update at every
// compaction stage boundary: updates racing the rebuild must land in
// the residual overlay and the post-checkpoint log, and all of them
// must survive a restart.
func TestDurableCompactionStageInterleave(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
	for _, o := range crashWorkload()[:5] {
		if err := tr.apply(o); err != nil {
			t.Fatal(err)
		}
	}
	var fired []string
	compactStageHook = func(stage string) {
		fired = append(fired, stage)
		o := crashOp{adds: []Triple{{"s-" + stage, "p0", "o-" + stage}}}
		if err := tr.apply(o); err != nil {
			t.Errorf("apply at stage %s: %v", stage, err)
		}
	}
	defer func() { compactStageHook = nil }()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	compactStageHook = nil
	if !reflect.DeepEqual(fired, compactStages) {
		t.Fatalf("stages fired = %v, want %v", fired, compactStages)
	}
	verifyOracle(t, db, oracleAt(tr.byVersion, db.DataVersion()))

	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	if v := db2.DataVersion(); v != tr.max {
		t.Fatalf("recovered version = %d, want %d", v, tr.max)
	}
	verifyOracle(t, db2, oracleAt(tr.byVersion, tr.max))
}

// TestDurableCompactionStageCrash kills the process right after an
// acknowledged update at each stage boundary. Whatever stage the
// compaction died in — rebuilt ring discarded, checkpoint half-written,
// truncation skipped — recovery must preserve every acked batch.
func TestDurableCompactionStageCrash(t *testing.T) {
	for si, stage := range compactStages {
		t.Run(stage, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(77 + si)))
			mem := wal.NewMemFS()
			ff := wal.NewFaultFS(mem)
			db, err := openDurable(durableCfg(), buildCrashSeed, ff)
			if err != nil {
				t.Fatal(err)
			}
			db.SetCompactionThreshold(-1)
			tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
			for _, o := range crashWorkload()[:5] {
				if err := tr.apply(o); err != nil {
					t.Fatal(err)
				}
			}
			compactStageHook = func(s string) {
				if s != stage {
					return
				}
				// One more acknowledged update, then the process dies.
				o := crashOp{adds: []Triple{{"s-" + s, "p0", "o-" + s}}}
				if err := tr.apply(o); err != nil {
					t.Errorf("apply at stage %s: %v", s, err)
				}
				ff.SetWriteBudget(0)
			}
			defer func() { compactStageHook = nil }()
			db.Flush() //nolint:errcheck // the kill may fail later stages
			compactStageHook = nil

			crashed := mem.Crash(rng)
			rdb, err := openDurable(durableCfg(), buildCrashSeed, crashed)
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", stage, err)
			}
			defer rdb.CloseWAL()
			v := rdb.DataVersion()
			if v < tr.acked {
				t.Fatalf("crash at %s: acked version %d lost, recovered to %d", stage, tr.acked, v)
			}
			if v > tr.max {
				t.Fatalf("crash at %s: recovered version %d beyond produced %d", stage, v, tr.max)
			}
			verifyOracle(t, rdb, oracleAt(tr.byVersion, v))
		})
	}
}

// TestDurableLastCheckpoint: the checkpoint's duration is reported
// next to the rebuild's, also for a checkpoint that failed (the swap
// happened; the time was spent).
func TestDurableLastCheckpoint(t *testing.T) {
	ff := wal.NewFaultFS(wal.NewMemFS())
	db, err := openDurable(durableCfg(), buildCrashSeed, ff)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	db.SetCompactionThreshold(-1)
	if st := db.Stats().Updates; st.LastCheckpoint != 0 {
		t.Fatalf("LastCheckpoint = %v before any compaction", st.LastCheckpoint)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"a", "p0", "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	db.Flush() //nolint:errcheck // always nil
	first := db.Stats().Updates.LastCheckpoint
	if first <= 0 || db.Stats().WAL.Checkpoints != 1 {
		t.Fatalf("LastCheckpoint = %v after %d checkpoints", first, db.Stats().WAL.Checkpoints)
	}
	if _, ws, _ := (dbBackend{db}).BackendStats(); ws.LastCheckpointMS != float64(first)/1e6 {
		t.Fatalf("service LastCheckpointMS = %v, want %v", ws.LastCheckpointMS, float64(first)/1e6)
	}

	if _, err := db.Apply(context.Background(), []Triple{{"b", "p0", "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	db.h.lastCheckpointNS.Store(0)
	compactStageHook = func(s string) {
		if s == "swapped" {
			ff.SetWriteBudget(0) // the checkpoint's writes fail
		}
	}
	defer func() { compactStageHook = nil }()
	db.Flush() //nolint:errcheck // always nil
	if ws := db.Stats().WAL; ws.CheckpointErrors != 1 {
		t.Fatalf("checkpoint errors = %d, want the injected one", ws.CheckpointErrors)
	}
	if st := db.Stats().Updates; st.LastCheckpoint <= 0 {
		t.Fatalf("LastCheckpoint = %v after a failed checkpoint", st.LastCheckpoint)
	}
}

// TestDurableTornTailTruncated mutilates the newest log segment
// directly: the torn record must be truncated — never panicked on, and
// never replayed half-applied.
func TestDurableTornTailTruncated(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
	for i := 0; i < 5; i++ {
		if err := tr.apply(crashOp{adds: []Triple{{fmt.Sprintf("t%d", i), "p0", fmt.Sprintf("t%d", i+1)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Chop a few bytes off the newest non-empty segment: the last
	// record's CRC can no longer match.
	names, _ := mem.ReadDir(crashDir)
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	cut := ""
	for i := len(segs) - 1; i >= 0; i-- {
		path := crashDir + "/" + segs[i]
		if data, ok := mem.Bytes(path); ok && len(data) > 16+16 {
			mem.WriteFile(path, data[:len(data)-3])
			cut = segs[i]
			break
		}
	}
	if cut == "" {
		t.Fatalf("no segment to cut among %v", segs)
	}

	db2, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer db2.CloseWAL()
	ws := db2.Stats().WAL
	if ws.TornBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", ws)
	}
	if v := db2.DataVersion(); v != 4 {
		t.Fatalf("recovered version = %d, want 4 (last record torn)", v)
	}
	verifyOracle(t, db2, oracleAt(tr.byVersion, 4))
}

// TestDurableFsyncNever: the relaxed policy may lose a crash-window
// suffix but never recovers to an inconsistent state.
func TestDurableFsyncNever(t *testing.T) {
	cfg := durableCfg()
	cfg.Fsync = "never"
	rng := rand.New(rand.NewSource(5))
	mem := wal.NewMemFS()
	db, err := openDurable(cfg, buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
	for _, o := range crashWorkload()[:8] {
		if err := tr.apply(o); err != nil {
			t.Fatal(err)
		}
	}
	crashed := mem.Crash(rng)
	db2, err := openDurable(cfg, buildCrashSeed, crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	v := db2.DataVersion()
	if v > tr.max {
		t.Fatalf("recovered version %d beyond produced %d", v, tr.max)
	}
	verifyOracle(t, db2, oracleAt(tr.byVersion, v))
}

// TestDurableStandingRecovery: subscriptions (and their resume cursors)
// ride the log — a restart re-registers them and rebuilds their delta
// history, explicit unsubscribes stay gone, and resumes past the
// processed stream are rejected.
func TestDurableStandingRecovery(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	start := sub.StartVersion()
	sub2, err := db.Subscribe(SubscribeRequest{Expr: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"a", "p0", "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"b", "p0", "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	db.SyncStanding()
	if !db.Unsubscribe(sub2.ID()) {
		t.Fatal("unsubscribe sub2")
	}
	sub.Detach()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	if _, err := db2.ResumeSubscription(sub2.ID(), 0); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("unsubscribed sub resumed after restart: %v", err)
	}
	if _, err := db2.ResumeSubscription(sub.ID(), 99); !errors.Is(err, ErrResumeFuture) {
		t.Fatalf("future resume: %v", err)
	}
	r, err := db2.ResumeSubscription(sub.ID(), start)
	if err != nil {
		t.Fatalf("resume from cursor %d: %v", start, err)
	}
	for want := uint64(1); want <= 2; want++ {
		d, ok, err := r.TryNext()
		if !ok || err != nil || d.Version != want {
			t.Fatalf("replayed delta = (%+v, %v, %v), want version %d", d, ok, err, want)
		}
		if len(d.Added) != 1 {
			t.Fatalf("delta %d added = %v", want, d.Added)
		}
	}
	// The stream continues past the restart.
	if _, err := db2.Apply(context.Background(), []Triple{{"c", "p0", "d"}}, nil); err != nil {
		t.Fatal(err)
	}
	db2.SyncStanding()
	d, ok, err := r.TryNext()
	if !ok || err != nil || d.Version != 3 {
		t.Fatalf("post-restart delta = (%+v, %v, %v)", d, ok, err)
	}
}

// TestDurableStandingCheckpointTable: once the log segments holding a
// subscription's registration are truncated away, the checkpoint's
// subscription table is what carries it across a restart.
func TestDurableStandingCheckpointTable(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	if _, err := db.Apply(context.Background(), []Triple{{"a", "p0", "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(context.Background(), []Triple{{"b", "p0", "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	// This compaction's base covers the sub record's version, so the
	// truncation drops the segment holding it: only the checkpoint's
	// table knows the subscription now.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.SyncStanding()
	sub.Detach()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, err := openDurable(durableCfg(), func() (*DB, error) {
		return nil, errors.New("must recover from checkpoint")
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	cursor := db2.DataVersion()
	r, err := db2.ResumeSubscription(sub.ID(), cursor)
	if err != nil {
		t.Fatalf("resume checkpoint-carried sub: %v", err)
	}
	if _, err := db2.Apply(context.Background(), []Triple{{"c", "p0", "d"}}, nil); err != nil {
		t.Fatal(err)
	}
	db2.SyncStanding()
	d, ok, err := r.TryNext()
	if !ok || err != nil || len(d.Added) != 1 {
		t.Fatalf("delta after restart = (%+v, %v, %v)", d, ok, err)
	}
}

// checkpointWithTag runs the crash workload up to its first flush,
// whose compaction checkpoints and truncates the log, and rewrites that
// checkpoint with layout tag tag in place of 0, keeping the ring after
// it and a valid CRC. It returns the filesystem.
func checkpointWithTag(t *testing.T, tag byte) *wal.MemFS {
	t.Helper()
	mem := wal.NewMemFS()
	db, err := openDurable(durableCfg(), buildCrashSeed, mem)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	tr := &tracker{db: db, byVersion: map[uint64]crashOp{}}
	for _, o := range crashWorkload()[:12] { // the flush is op 9
		if err := tr.apply(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	names, err := mem.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, name := range names {
		if _, ok := parseCkptName(name); ok {
			path = filepath.Join(crashDir, name)
		}
	}
	raw, ok := mem.Bytes(path)
	if !ok {
		t.Fatalf("no checkpoint among %v", names)
	}
	st, err := readCheckpoint(mem, path)
	if err != nil {
		t.Fatal(err)
	}
	// The body is the version, the dictionaries, the layout tag (one
	// byte) and the ring, then the subscription table.
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Uint64(st.version)
	w.Int(st.db.g.NumNodes())
	for _, name := range st.db.g.Nodes.NamesView() {
		w.String(name)
	}
	st.db.g.Preds.Encode(w)
	w.Uvarint(uint64(st.db.g.NumPreds))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tagAt := buf.Len()
	w.Int(0)
	st.db.h.cur.Load().r.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(raw[ckptHeaderSize:])
	if !bytes.HasPrefix(body, buf.Bytes()) {
		t.Fatal("the checkpoint body is not dictionaries, layout tag 0 and the ring")
	}
	body[tagAt] = tag
	hdr := bytes.Clone(raw[:ckptHeaderSize])
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(body, ckptCRC))
	mem.WriteFile(path, append(hdr, body...))
	return mem
}

// openTagged opens a checkpoint rewritten by checkpointWithTag, which
// must fail without building: the checkpoint is the only one and the
// log is truncated up to it. It returns the error.
func openTagged(t *testing.T, tag byte) error {
	t.Helper()
	mem := checkpointWithTag(t, tag)
	db, err := openDurable(durableCfg(), func() (*DB, error) {
		return nil, errors.New("recovery must start from the checkpoint")
	}, mem)
	if err == nil {
		db.CloseWAL()
		t.Fatalf("a checkpoint with layout tag %d opened", tag)
	}
	return err
}

// TestDurableShardedCheckpointRejected: older builds checkpointed a
// sharded database under layout tag 1. OpenDurable rejects such a
// checkpoint and names the last commit that reads it.
func TestDurableShardedCheckpointRejected(t *testing.T) {
	err := openTagged(t, 1)
	for _, sub := range []string{"layout tag 1", "sharded", "d7a9cda"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
}

// TestDurableCheckpointUnknownLayoutTag: 0 is the only layout tag
// read, so a checkpoint whose tag is 2 fails to open even though a
// valid ring follows the tag.
func TestDurableCheckpointUnknownLayoutTag(t *testing.T) {
	if err := openTagged(t, 2); !strings.Contains(err.Error(), "layout tag 2") {
		t.Fatalf("error %q does not name layout tag 2", err)
	}
}

// TestDurableRecoveryDropsWideSubscription: a store written before
// expressions were bounded may hold a subscription wider than the
// engine. Recovery must open the store, drop that subscription with
// recoverSub's note on stderr, and keep the other subscriptions
// delivering.
func TestDurableRecoveryDropsWideSubscription(t *testing.T) {
	cfg := WALConfig{Dir: t.TempDir(), Fsync: "always"}
	db, err := OpenDurable(cfg, buildCrashSeed)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(-1)
	sub, err := db.Subscribe(SubscribeRequest{Expr: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("p0?/", pathexpr.MaxPositions) + "p0"
	if _, err := db.Subscribe(SubscribeRequest{Expr: wide}); err == nil {
		t.Fatal("subscription past the position bound accepted")
	}
	// Log the wide registration as a tree without the bound did.
	wideID := sub.ID() + 1
	rec := standing.SubRecord{ID: wideID, Req: SubscribeRequest{Expr: wide}}
	if err := db.h.wal.Load().appendSub(sub.StartVersion(), rec); err != nil {
		t.Fatal(err)
	}
	sub.Detach()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	stderr := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	db2, err := OpenDurable(cfg, buildCrashSeed)
	os.Stderr = stderr
	pw.Close()
	note, _ := io.ReadAll(pr)
	if err != nil {
		t.Fatalf("store with a wide subscription does not open: %v", err)
	}
	defer db2.CloseWAL()
	if want := fmt.Sprintf("recovery dropped subscription %d", wideID); !strings.Contains(string(note), want) {
		t.Fatalf("stderr %q lacks %q", note, want)
	}
	if _, err := db2.ResumeSubscription(wideID, 0); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("wide subscription survived recovery: %v", err)
	}
	r, err := db2.ResumeSubscription(sub.ID(), db2.DataVersion())
	if err != nil {
		t.Fatalf("resume narrow subscription: %v", err)
	}
	if _, err := db2.Apply(context.Background(), []Triple{{"a", "p0", "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	db2.SyncStanding()
	if d, ok, err := r.TryNext(); !ok || err != nil || len(d.Added) != 1 {
		t.Fatalf("delta after recovery = (%+v, %v, %v)", d, ok, err)
	}
}
