package ringrpq

import (
	"fmt"
	"io"

	"ringrpq/internal/ring"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
)

// File magics. Save writes "rdb1": graph metadata, then one ring. An
// older build could also write a sharded database, "rdbs" followed by a
// container version (1), the combination referred to as the rdbs1
// format: the same metadata, then a shard container. rdbs1 is read-only
// now; LoadDB concatenates its shards into one ring.
const (
	fileMagic        = "rdb1"
	fileMagicSharded = "rdbs"
	shardedVersion   = 1
)

// Save writes the database (dictionaries + ring index) to w in the
// compact binary rdb1 format. Building the index once and reloading it
// with LoadDB skips the construction sorts on subsequent runs.
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
	sw.Magic(fileMagic)
	db.g.EncodeMeta(sw)
	snap.r.Encode(sw)
	return sw.Flush()
}

// LoadDB reads a database written by Save (rdb1) or by an older
// sharded build (rdbs1, loaded as one ring). Corrupted or truncated
// input yields an error, never a panic.
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
	return newDB(g, rg), nil
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
	return newDB(g, concatShards(set)), nil
}

// concatShards builds one ring over a decoded shard container. The
// shards partition the completed triples by predicate, so their triple
// sets are disjoint and their concatenation is the whole graph; the
// ring built from it is the one a fresh build of that graph makes.
func concatShards(set *ring.ShardSet) *ring.Ring {
	ts := make([]triples.Triple, 0, set.N)
	for _, r := range set.Shards {
		ts = append(ts, r.Triples()...)
	}
	return ring.FromTriples(ts, set.NumNodes, set.NumPreds)
}
