package ringrpq

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// probeExpr names a predicate of every loader input below: l1 of
// savedDBBytes' graph, P1 of the format fixture's.
const probeExpr = "l1|P1"

// savedDBBytes serialises a small database.
func savedDBBytes(tb testing.TB) []byte {
	tb.Helper()
	b := NewBuilder()
	b.Add("Baq", "l1", "UCh")
	b.Add("UCh", "l1", "LH")
	b.Add("LH", "l2", "SA")
	b.Add("SA", "l5", "BA")
	b.Add("BA", "l5", "Baq")
	b.Add("SA", "bus", "UCh")
	db, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// loaderInputs returns the serialised databases the loader tests take
// apart: savedDBBytes' rdb1 file and the format fixture's (see
// TestFormatFixture), whose nodes a fresh build numbers by locality.
func loaderInputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	return map[string][]byte{
		"rdb1":          savedDBBytes(tb),
		"rdb1-locality": fixtureBytes(tb, "graph-locality.rdb"),
	}
}

// fixtureBytes reads a file of the format fixture.
func fixtureBytes(tb testing.TB, file string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "format", file))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// usable reports an error unless a loaded database answers a query,
// lists its names and takes an update through a compaction, which
// decodes every sequence of its ring. It must not panic either.
func usable(db *DB) error {
	if _, err := db.Count(context.Background(), "?s", probeExpr, "?o"); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	db.Nodes()
	preds := db.Predicates()
	if len(preds) == 0 {
		return nil
	}
	if _, err := db.Apply(context.Background(), []Triple{{Subject: "new", Predicate: preds[0], Object: "new"}}, nil); err != nil {
		return fmt.Errorf("update: %w", err)
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	return nil
}

// FuzzLoadDB feeds arbitrary bytes to the database loader. Whatever
// the input — truncated, bit-flipped or wholly synthetic rdb1, or one
// of the formats older builds wrote (the fixture's tree-layout and
// rdbs1 files seed the rejection path) — LoadDB must return an error
// or a usable database; it must never panic, and corrupt length
// prefixes must not force allocations beyond the input's own size.
//
// Run with: go test -run NONE -fuzz FuzzLoadDB .
func FuzzLoadDB(f *testing.F) {
	single, sharded := savedDBBytes(f), fixtureBytes(f, "graph-3shards.rdb")
	f.Add(single)
	f.Add(sharded)
	f.Add([]byte{})
	f.Add([]byte("rdb1"))
	f.Add([]byte("rdbs"))
	f.Add([]byte("rdb1gra1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add(single[:len(single)/2])
	f.Add(sharded[:len(sharded)/3])
	f.Add(oversizedHeader(f))
	f.Add(fixtureBytes(f, "graph-tree.rdb"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if db, err := LoadDB(bytes.NewReader(data)); err == nil {
			if err := usable(db); err != nil {
				t.Fatalf("loaded DB is not usable: %v", err)
			}
		}
	})
}

// TestLoadDBTruncations deterministically checks every prefix of the
// loader inputs: each must produce an error, never a panic (the
// regression net for what FuzzLoadDB explores randomly).
func TestLoadDBTruncations(t *testing.T) {
	for name, raw := range loaderInputs(t) {
		for i := 0; i < len(raw); i++ {
			if _, err := LoadDB(bytes.NewReader(raw[:i])); err == nil {
				t.Fatalf("%s: LoadDB of %d/%d-byte prefix succeeded", name, i, len(raw))
			}
		}
	}
}

// TestLoadDBBitFlips flips each byte of the loader inputs in a few
// positions and requires LoadDB to either reject the input or return a
// usable database — never panic.
func TestLoadDBBitFlips(t *testing.T) {
	for name, raw := range loaderInputs(t) {
		for i := 0; i < len(raw); i++ {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), raw...)
				mut[i] ^= flip
				// Some flips (e.g. inside dictionary names) still load;
				// the result must stay usable.
				if db, err := LoadDB(bytes.NewReader(mut)); err == nil {
					if err := usable(db); err != nil {
						t.Fatalf("%s: flipped byte %d by %#x: %v", name, i, flip, err)
					}
				}
			}
		}
	}
}
