package ringrpq

import (
	"errors"
	"fmt"
	"io"

	"ringrpq/internal/ring"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
)

// File magics. Save writes "rdb1": graph metadata, then one ring.
// Older builds could also write a sharded database, "rdbs" followed by
// a container version, the rdbs1 format; LoadDB recognises its magic
// only to reject it with an upgrade hint.
const (
	fileMagic        = "rdb1"
	fileMagicSharded = "rdbs"
)

// Save writes the database (dictionaries + ring index) to w in the
// compact binary rdb1 format. Building the index once and reloading it
// with LoadDB skips the construction sorts on subsequent runs.
//
// The on-disk format holds only the static index, so a dirty overlay
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
	sw.Magic(fileMagic)
	db.g.EncodeMeta(sw)
	snap.r.Encode(sw)
	return sw.Flush()
}

// LoadDB reads a database written by Save (rdb1). Corrupted or
// truncated input, and the formats older builds wrote (rdbs1, or rdb1
// with wavelet-tree sequences), yield an error, never a panic.
func LoadDB(r io.Reader) (*DB, error) {
	sr := serial.NewReader(r)
	switch tag := sr.Tag(); tag {
	case fileMagic:
		return loadSingle(sr)
	case fileMagicSharded:
		return nil, errors.New("ringrpq: load: the sharded rdbs1 format is no longer read; " +
			"load and re-save the file with commit d7a9cda, the last that reads it")
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
	return newDB(g, rg), nil
}
