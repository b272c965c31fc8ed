package ringrpq

import (
	"fmt"
	"io"

	"ringrpq/internal/ring"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
)

// File magics. A single-ring database starts with "rdb1"; a sharded
// database starts with "rdbs" followed by a container version (1), the
// combination referred to as the rdbs1 format. Both carry the same
// graph metadata; the payload is either one ring or a shard container.
// LoadDB dispatches on the magic, so the two formats are transparently
// interchangeable at load time.
const (
	fileMagic        = "rdb1"
	fileMagicSharded = "rdbs"
	shardedVersion   = 1
)

// Save writes the database (dictionaries + ring index, or the sharded
// rdbs1 container) to w in a compact binary format. Building the index
// once and reloading it with LoadDB skips the construction sorts on
// subsequent runs.
//
// The on-disk formats hold only the static index, so a dirty overlay
// is flushed (compacted into the ring) first: Save persists exactly
// the data the database currently serves. Updates applied concurrently
// with Save trigger another flush round before the snapshot is pinned,
// so every acknowledged Apply that happened-before Save's pin is in
// the file; under a continuous write stream Save keeps flushing until
// it catches a quiescent window.
func (db *DB) Save(w io.Writer) error {
	var snap *snapshot
	for {
		if !db.h.cur.Load().ov.Empty() {
			if err := db.Flush(); err != nil {
				return err
			}
		}
		// Pin under the update lock: no Apply can slip between the
		// emptiness check and the pin.
		db.h.mu.Lock()
		s := db.h.cur.Load()
		if s.ov.Empty() {
			s.refs.Add(1)
			snap = s
		}
		db.h.mu.Unlock()
		if snap != nil {
			break
		}
	}
	defer db.h.release(snap)
	sw := serial.NewWriter(w)
	if snap.set != nil {
		sw.Magic(fileMagicSharded)
		sw.Int(shardedVersion)
		db.g.EncodeMeta(sw)
		snap.set.Encode(sw)
		return sw.Flush()
	}
	sw.Magic(fileMagic)
	db.g.EncodeMeta(sw)
	snap.r.Encode(sw)
	return sw.Flush()
}

// LoadDB reads a database written by Save, accepting both the
// single-ring (rdb1) and sharded (rdbs1) formats. Corrupted or
// truncated input yields an error, never a panic.
func LoadDB(r io.Reader) (*DB, error) {
	sr := serial.NewReader(r)
	switch tag := sr.Tag(); tag {
	case fileMagic:
		return loadSingle(sr)
	case fileMagicSharded:
		return loadSharded(sr)
	default:
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("ringrpq: load: %w", err)
		}
		return nil, fmt.Errorf("ringrpq: load: bad magic %q", tag)
	}
}

func loadSingle(sr *serial.Reader) (*DB, error) {
	g := triples.DecodeMeta(sr)
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("ringrpq: load: %w", err)
	}
	rg, err := ring.Decode(sr)
	if err != nil {
		return nil, fmt.Errorf("ringrpq: load: %w", err)
	}
	if rg.NumNodes != g.NumNodes() || rg.NumPreds != g.NumCompletedPreds() {
		return nil, fmt.Errorf("ringrpq: load: ring/dictionary mismatch (%d/%d nodes, %d/%d preds)",
			rg.NumNodes, g.NumNodes(), rg.NumPreds, g.NumCompletedPreds())
	}
	return newDB(g, rg, nil), nil
}

func loadSharded(sr *serial.Reader) (*DB, error) {
	if v := sr.Int(); sr.Err() == nil && v != shardedVersion {
		return nil, fmt.Errorf("ringrpq: load: unsupported sharded container version %d", v)
	}
	g := triples.DecodeMeta(sr)
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("ringrpq: load: %w", err)
	}
	set, err := ring.DecodeShardSet(sr)
	if err != nil {
		return nil, fmt.Errorf("ringrpq: load: %w", err)
	}
	if set.NumNodes != g.NumNodes() || set.NumPreds != g.NumCompletedPreds() {
		return nil, fmt.Errorf("ringrpq: load: shard set/dictionary mismatch (%d/%d nodes, %d/%d preds)",
			set.NumNodes, g.NumNodes(), set.NumPreds, g.NumCompletedPreds())
	}
	return newDB(g, nil, set), nil
}
