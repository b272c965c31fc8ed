package ringrpq

// This file is the durability layer: a database opened with OpenDurable
// appends every update batch to a write-ahead log before publishing it
// (see Apply in update.go), checkpoints the merged static index on
// every compaction, and reconstructs its exact pre-crash state at the
// next OpenDurable — checkpoint first, then a replay of the log's
// surviving suffix. Standing-query registrations ride the same log (and
// the checkpoint's subscription table), so resume cursors survive a
// restart too.
//
// Determinism is what makes log replay sufficient: node ids are
// assigned by first appearance (Dict.Intern), and Apply interns under
// the holder lock only after the batch's WAL append succeeded, so
// replaying batches in version order re-assigns the same ids the
// original run did. A checkpoint pairs the merged ring with exactly
// the dictionary prefix it was built against (compactNow merges at
// base.numNodes), so recovery's dictionary grows from that prefix the
// same way the original dictionary did.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ringrpq/internal/ring"
	"ringrpq/internal/serial"
	"ringrpq/internal/service"
	"ringrpq/internal/standing"
	"ringrpq/internal/triples"
	"ringrpq/internal/wal"
)

// WAL record kinds. A record's key is the data version it produces
// (batch, swap) or was registered at (sub, unsub).
const (
	recBatch = 1 // adds + dels, key = resulting data version
	recSwap  = 2 // compaction swap's version bump, empty body
	recSub   = 3 // standing-query registration, key = start version
	recUnsub = 4 // standing-query removal
)

// Checkpoint file format: a fixed header (magic, format, body length,
// body CRC) over a serial-encoded body. Files are written to a temp
// name and renamed into place, so a checkpoint either exists whole or
// not at all; the previous checkpoint is only deleted after the new one
// is durable.
const (
	ckptMagic      = "rckp"
	ckptFormat     = 1
	ckptHeaderSize = 20 // magic(4) + u32 format + u64 bodyLen + u32 crc
	ckptTempName   = "checkpoint.tmp"
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

func ckptName(version uint64) string {
	return fmt.Sprintf("checkpoint-%016x.rckp", version)
}

func parseCkptName(name string) (uint64, bool) {
	const prefix, suffix = "checkpoint-", ".rckp"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// walSink is the holder's durability attachment (holder.wal): the open
// log plus the checkpoint writer's filesystem handle and counters.
type walSink struct {
	log *wal.Log
	fs  wal.FS
	dir string
	// ackSync makes Apply (and Subscribe) fsync before acknowledging —
	// the SyncAlways contract.
	ackSync bool
	policy  string

	checkpoints    atomic.Int64
	checkpointErrs atomic.Int64
	lastCheckpoint atomic.Uint64
}

// appendSub logs a standing-query registration.
func (s *walSink) appendSub(version uint64, rec standing.SubRecord) error {
	lsn, err := s.log.Append(version, encodeSubRecord(rec))
	if err != nil {
		return err
	}
	if s.ackSync {
		return s.log.Sync(lsn)
	}
	return nil
}

// appendUnsub logs a standing-query removal. Best-effort: the
// subscription is already gone in memory, and losing the record only
// means recovery re-registers a subscription nobody will resume — it
// can be unsubscribed again.
func (s *walSink) appendUnsub(version uint64, id uint64) {
	if lsn, err := s.log.Append(version, encodeUnsubRecord(id)); err == nil && s.ackSync {
		//lint:ignore walerr unsub records are best-effort by design (see doc comment): losing one only re-registers a subscription nobody resumes
		s.log.Sync(lsn)
	}
}

// --- record encoding ---

func writeTriples(w *serial.Writer, ts []Triple) {
	w.Int(len(ts))
	for _, t := range ts {
		w.String(t.Subject)
		w.String(t.Predicate)
		w.String(t.Object)
	}
}

// readTriples caps preallocation from the untrusted length prefix; the
// slice grows with the bytes actually decoded.
func readTriples(r *serial.Reader) []Triple {
	n := r.Int()
	if r.Err() != nil || n == 0 {
		return nil
	}
	c := n
	if c > 4096 {
		c = 4096
	}
	out := make([]Triple, 0, c)
	for i := 0; i < n; i++ {
		t := Triple{Subject: r.String(), Predicate: r.String(), Object: r.String()}
		if r.Err() != nil {
			return nil
		}
		out = append(out, t)
	}
	return out
}

func encodeBatchRecord(adds, dels []Triple) []byte {
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Uvarint(recBatch)
	writeTriples(w, adds)
	writeTriples(w, dels)
	w.Flush() //nolint:errcheck // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

func encodeSwapRecord() []byte {
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Uvarint(recSwap)
	w.Flush() //nolint:errcheck
	return buf.Bytes()
}

// encodeSubBody writes the registration shared by sub records and the
// checkpoint's subscription table. Request.Snapshot is deliberately not
// persisted: a recovered subscription must not replay its baseline as a
// delta.
func encodeSubBody(w *serial.Writer, rec standing.SubRecord) {
	w.Uvarint(rec.ID)
	w.String(rec.Req.Subject)
	w.String(rec.Req.Object)
	w.String(rec.Req.Expr)
	w.String(rec.Req.Pattern)
	w.Int(rec.Req.QueueDepth)
}

func readSubBody(r *serial.Reader) standing.SubRecord {
	var rec standing.SubRecord
	rec.ID = r.Uvarint()
	rec.Req.Subject = r.String()
	rec.Req.Object = r.String()
	rec.Req.Expr = r.String()
	rec.Req.Pattern = r.String()
	rec.Req.QueueDepth = r.Int()
	return rec
}

func encodeSubRecord(rec standing.SubRecord) []byte {
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Uvarint(recSub)
	encodeSubBody(w, rec)
	w.Flush() //nolint:errcheck
	return buf.Bytes()
}

func encodeUnsubRecord(id uint64) []byte {
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Uvarint(recUnsub)
	w.Uvarint(id)
	w.Flush() //nolint:errcheck
	return buf.Bytes()
}

// --- replay ---

// applyWALRecord replays one surviving log record during OpenDurable.
// The record's integrity was already verified by the log's CRC scan;
// errors here mean the log and the checkpoint disagree (a version gap)
// or a format mismatch, both unrecoverable.
func (db *DB) applyWALRecord(key uint64, payload []byte) error {
	r := serial.NewReader(bytes.NewReader(payload))
	kind := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("record kind: %w", err)
	}
	switch kind {
	case recBatch:
		adds := readTriples(r)
		dels := readTriples(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("batch record: %w", err)
		}
		return db.applyRecoveredBatch(key, adds, dels)
	case recSwap:
		return db.applyRecoveredSwap(key)
	case recSub:
		rec := readSubBody(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("sub record: %w", err)
		}
		db.recoverSub(rec)
		return nil
	case recUnsub:
		id := r.Uvarint()
		if err := r.Err(); err != nil {
			return fmt.Errorf("unsub record: %w", err)
		}
		db.Unsubscribe(id)
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
}

// applyRecoveredBatch is Apply minus the WAL append and the compaction
// trigger: records at or before the checkpoint are skipped, the next
// version applies, and anything else is a gap the checkpoint/truncation
// invariants rule out on an uncorrupted directory.
func (db *DB) applyRecoveredBatch(version uint64, adds, dels []Triple) error {
	preds, err := db.predsOf(adds)
	if err != nil {
		return err
	}
	h := db.h
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur.Load()
	if version <= cur.version {
		return nil // covered by the checkpoint
	}
	if version != cur.version+1 {
		return fmt.Errorf("version gap: at %d, next record is %d", cur.version, version)
	}
	addEdges := db.internAdds(adds, preds)
	delEdges := db.resolveDels(dels)
	ov := cur.ov.Apply(version, addEdges, delEdges, cur.inStatic)
	h.advance(nil, cur, cur.r, ov, db.g.NumNodes(), &standing.Batch{Adds: addEdges, Dels: delEdges})
	return nil
}

// applyRecoveredSwap replays a compaction's version bump. The merge
// itself is not repeated — the data is identical either way, and if the
// compaction's checkpoint survived, recovery started from it and the
// swap record was truncated along with everything it covered.
func (db *DB) applyRecoveredSwap(version uint64) error {
	h := db.h
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur.Load()
	if version <= cur.version {
		return nil
	}
	if version != cur.version+1 {
		return fmt.Errorf("version gap: at %d, next record is %d", cur.version, version)
	}
	h.advance(nil, cur, cur.r, cur.ov, cur.numNodes, nil)
	return nil
}

// recoverSub re-registers one persisted subscription. Failures drop
// the subscription (with a note on stderr) rather than failing
// recovery: a query that no longer compiles — say, a predicate gone
// after an offline rebuild — must not hold the whole database hostage.
func (db *DB) recoverSub(rec standing.SubRecord) {
	if err := db.registry().SubscribeRecovered(rec); err != nil {
		fmt.Fprintf(os.Stderr, "ringrpq: recovery dropped subscription %d: %v\n", rec.ID, err)
	}
}

// --- checkpoints ---

// writeCheckpoint persists the merged static index (all data through
// cpVersion, consolidated) plus the dictionaries and the live
// subscription table. Called by compactNow after the swap; on success
// the log is truncated up to cpVersion.
func (db *DB) writeCheckpoint(sink *walSink, newR *ring.Ring, cpVersion uint64, numNodes int) error {
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Uint64(cpVersion)
	// The node dictionary is written as the prefix the ring was merged
	// against: batches that raced the merge may have grown it past
	// numNodes, and their interns are re-done by log replay.
	names := db.g.Nodes.NamesView()
	if numNodes > len(names) {
		return fmt.Errorf("ringrpq: checkpoint: %d nodes exceeds dictionary length %d", numNodes, len(names))
	}
	w.Int(numNodes)
	for _, name := range names[:numNodes] {
		w.String(name)
	}
	db.g.Preds.Encode(w)
	w.Uvarint(uint64(db.g.NumPreds))
	w.Int(0) // layout tag: one ring (see readCheckpoint)
	newR.Encode(w)
	var recs []standing.SubRecord
	if reg := db.h.standing.Load(); reg != nil {
		recs = reg.SnapshotSubs()
	}
	w.Int(len(recs))
	for _, rec := range recs {
		encodeSubBody(w, rec)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	body := buf.Bytes()

	var hdr [ckptHeaderSize]byte
	copy(hdr[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ckptFormat)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(body, ckptCRC))

	tmp := filepath.Join(sink.dir, ckptTempName)
	final := filepath.Join(sink.dir, ckptName(cpVersion))
	f, err := sink.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := sink.fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := sink.fs.SyncDir(sink.dir); err != nil {
		return err
	}
	// The new checkpoint is durable; retire older ones. Failures here
	// only leave extra files for the next recovery to skip past.
	if entries, err := sink.fs.ReadDir(sink.dir); err == nil {
		removed := false
		for _, name := range entries {
			if v, ok := parseCkptName(name); ok && v < cpVersion {
				if sink.fs.Remove(filepath.Join(sink.dir, name)) == nil {
					removed = true
				}
			}
		}
		if removed {
			if err := sink.fs.SyncDir(sink.dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpointState is one decoded checkpoint.
type checkpointState struct {
	db      *DB
	version uint64
	subs    []standing.SubRecord
}

func readCheckpoint(fsys wal.FS, path string) (*checkpointState, error) {
	size, err := fsys.Size(path)
	if err != nil {
		return nil, err
	}
	if size < ckptHeaderSize {
		return nil, fmt.Errorf("short checkpoint (%d bytes)", size)
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [ckptHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[0:4]) != ckptMagic {
		return nil, fmt.Errorf("bad checkpoint magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != ckptFormat {
		return nil, fmt.Errorf("unsupported checkpoint format %d", v)
	}
	bodyLen := binary.LittleEndian.Uint64(hdr[8:16])
	// Bound the allocation by the file's actual size, so a corrupt
	// length can never force more memory than the input holds.
	if bodyLen != uint64(size)-ckptHeaderSize {
		return nil, fmt.Errorf("checkpoint body length %d does not match file size %d", bodyLen, size)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(f, body); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(body, ckptCRC); got != binary.LittleEndian.Uint32(hdr[16:20]) {
		return nil, errors.New("checkpoint CRC mismatch")
	}

	r := serial.NewReader(bytes.NewReader(body))
	cpVersion := r.Uint64()
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	nodes := triples.NewDict()
	for i := 0; i < n; i++ {
		name := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		nodes.Intern(name)
	}
	if nodes.Len() != n {
		return nil, fmt.Errorf("checkpoint node dictionary has duplicates (%d of %d unique)", nodes.Len(), n)
	}
	preds := triples.DecodeDict(r)
	np := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if np > math.MaxUint32 {
		return nil, fmt.Errorf("checkpoint predicate count %d overflows", np)
	}
	g := &triples.Graph{Nodes: nodes, Preds: preds, NumPreds: uint32(np)}
	// The layout tag: 0, one ring, is the only one read (a failed read
	// yields 0, and ring.Decode reports the error). Tag 1 is the shard
	// container older builds wrote.
	tag := r.Int()
	if tag == 1 {
		return nil, errors.New("checkpoint layout tag 1, a sharded index, is no longer read; open the directory " +
			"once with commit d7a9cda, the last that reads it, and let a compaction write a current checkpoint")
	}
	if tag != 0 {
		return nil, fmt.Errorf("unknown checkpoint layout tag %d", tag)
	}
	rg, err := ring.Decode(r)
	if err != nil {
		return nil, err
	}
	if rg.NumNodes != n || rg.NumPreds != g.NumCompletedPreds() {
		return nil, fmt.Errorf("checkpoint ring/dictionary mismatch (%d/%d nodes, %d/%d preds)",
			rg.NumNodes, n, rg.NumPreds, g.NumCompletedPreds())
	}
	db := newDB(g, rg)
	m := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	c := m
	if c > 4096 {
		c = 4096
	}
	subs := make([]standing.SubRecord, 0, c)
	for i := 0; i < m; i++ {
		rec := readSubBody(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		subs = append(subs, rec)
	}
	// The fresh holder's snapshot is not shared yet; stamp the version
	// the checkpoint's data corresponds to so replay lines up.
	db.h.cur.Load().version = cpVersion
	return &checkpointState{db: db, version: cpVersion, subs: subs}, nil
}

// --- opening ---

// WALConfig configures OpenDurable.
type WALConfig struct {
	// Dir holds the log segments and checkpoints; created if missing.
	Dir string
	// Fsync selects the durability policy: "always" (the default —
	// Apply's acknowledgement implies the batch survives any crash),
	// "interval" (fsync on a background ticker; a crash loses at most
	// the last interval), or "never" (the OS decides; fastest).
	Fsync string
	// FsyncInterval is the "interval" policy's period (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the log's segment roll threshold (default 16 MiB).
	SegmentBytes int64
	// Standing, when non-zero, configures the standing-query subsystem
	// before any persisted subscription is re-registered (equivalent to
	// calling SetStandingConfig first).
	Standing StandingConfig
}

// OpenDurable opens (or creates) a durable database on cfg.Dir. With
// no prior state the initial database comes from build — typically a
// Builder or LoadDB closure — and every later OpenDurable reconstructs
// the exact acknowledged state from the newest checkpoint plus the
// log's surviving suffix; build is not called then. Torn log tails
// (records half-written at the crash) are detected by CRC and
// truncated; under Fsync "always" no acknowledged update is ever lost.
//
// The directory must not be shared: one OpenDurable'd database owns it
// exclusively.
func OpenDurable(cfg WALConfig, build func() (*DB, error)) (*DB, error) {
	return openDurable(cfg, build, wal.OSFS())
}

func openDurable(cfg WALConfig, build func() (*DB, error), fsys wal.FS) (*DB, error) {
	if cfg.Dir == "" {
		return nil, errors.New("ringrpq: durable: empty directory")
	}
	var policy wal.Policy
	policyName := cfg.Fsync
	switch cfg.Fsync {
	case "", "always":
		policy, policyName = wal.SyncAlways, "always"
	case "interval":
		policy = wal.SyncInterval
	case "never":
		policy = wal.SyncNever
	default:
		return nil, fmt.Errorf("ringrpq: durable: unknown fsync policy %q (want always, interval or never)", cfg.Fsync)
	}
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("ringrpq: durable: %w", err)
	}
	// A leftover temp file is a checkpoint that never made it.
	if err := fsys.Remove(filepath.Join(cfg.Dir, ckptTempName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("ringrpq: durable: %w", err)
	}

	entries, err := fsys.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("ringrpq: durable: %w", err)
	}
	type ckpt struct {
		name    string
		version uint64
	}
	var ckpts []ckpt
	for _, name := range entries {
		if v, ok := parseCkptName(name); ok {
			ckpts = append(ckpts, ckpt{name, v})
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].version > ckpts[j].version })

	// Newest readable checkpoint wins. A checkpoint that exists but
	// cannot be read is fatal when no older one can either: the log was
	// truncated up to it, so building from scratch would silently lose
	// acknowledged data.
	var st *checkpointState
	var lastErr error
	for _, c := range ckpts {
		st, lastErr = readCheckpoint(fsys, filepath.Join(cfg.Dir, c.name))
		if lastErr == nil {
			break
		}
		fmt.Fprintf(os.Stderr, "ringrpq: skipping checkpoint %s: %v\n", c.name, lastErr)
		st = nil
	}
	if st == nil && len(ckpts) > 0 {
		return nil, fmt.Errorf("ringrpq: durable: no readable checkpoint in %s: %w", cfg.Dir, lastErr)
	}

	var db *DB
	if st != nil {
		db = st.db
	} else {
		db, err = build()
		if err != nil {
			return nil, err
		}
		if db == nil {
			return nil, errors.New("ringrpq: durable: build returned no database")
		}
		if db.h.wal.Load() != nil {
			return nil, errors.New("ringrpq: durable: database already has a write-ahead log")
		}
	}
	if cfg.Standing != (StandingConfig{}) {
		db.SetStandingConfig(cfg.Standing)
	}

	log, err := wal.Open(wal.Options{
		Dir:          cfg.Dir,
		Policy:       policy,
		Interval:     cfg.FsyncInterval,
		SegmentBytes: cfg.SegmentBytes,
		FS:           fsys,
	})
	if err != nil {
		return nil, fmt.Errorf("ringrpq: durable: %w", err)
	}

	// Re-register checkpointed subscriptions before replay, so replayed
	// batches extend their delta histories exactly as the live run did;
	// sub records still in the log re-register the rest in stream order
	// (SubscribeRecovered skips ids that already exist).
	if st != nil {
		for _, rec := range st.subs {
			db.recoverSub(rec)
		}
	}
	if err := log.Replay(db.applyWALRecord); err != nil {
		log.Close()
		return nil, fmt.Errorf("ringrpq: durable: replay: %w", err)
	}
	// Drain the registry's queue so recovered subscriptions' histories
	// are complete before the first client resumes.
	if reg := db.h.standing.Load(); reg != nil {
		reg.Sync()
	}

	sink := &walSink{
		log:     log,
		fs:      fsys,
		dir:     cfg.Dir,
		ackSync: policy == wal.SyncAlways,
		policy:  policyName,
	}
	if st != nil {
		sink.lastCheckpoint.Store(st.version)
	}
	db.h.wal.Store(sink)
	return db, nil
}

// CloseWAL flushes and closes the write-ahead log. The database stays
// queryable, but every later Apply fails: detaching the log silently
// would downgrade a durable database to an in-memory one. Shared with
// all clones; safe to call more than once.
func (db *DB) CloseWAL() error {
	sink := db.h.wal.Load()
	if sink == nil {
		return nil
	}
	err := sink.log.Close()
	if errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}

// WALStats describes the durability layer (Stats.WAL); the zero value
// (Enabled false) means the database was not opened with OpenDurable.
type WALStats = service.WALStats

// walStats snapshots the durability counters.
func (db *DB) walStats() WALStats {
	sink := db.h.wal.Load()
	if sink == nil {
		return WALStats{}
	}
	ls := sink.log.Stats()
	var wedged bool
	var reason string
	if err := sink.log.Err(); err != nil {
		wedged, reason = true, err.Error()
	}
	return WALStats{
		Enabled:               true,
		Dir:                   sink.dir,
		FsyncPolicy:           sink.policy,
		Wedged:                wedged,
		WedgeReason:           reason,
		Appended:              ls.Appended,
		AppendedBytes:         ls.AppendedBytes,
		Fsyncs:                ls.Fsyncs,
		Replayed:              ls.Replayed,
		TornBytes:             ls.TornBytes,
		Segments:              ls.Segments,
		SizeBytes:             ls.SizeBytes,
		Checkpoints:           sink.checkpoints.Load(),
		CheckpointErrors:      sink.checkpointErrs.Load(),
		LastCheckpointVersion: sink.lastCheckpoint.Load(),
		LastCheckpointMS:      float64(db.h.lastCheckpointNS.Load()) / 1e6,
	}
}
