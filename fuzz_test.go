package ringrpq

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// probeExpr names a predicate of every loader input below: l1 of
// savedDBBytes' graph, P1 of the format fixture's.
const probeExpr = "l1|P1"

// savedDBBytes serialises a small database in both on-disk formats.
func savedDBBytes(tb testing.TB) (single, sharded []byte) {
	tb.Helper()
	build := func(shards int) []byte {
		b := NewBuilderWithConfig(BuilderConfig{Shards: shards})
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
	return build(1), build(3)
}

// loaderInputs returns the serialised databases the loader tests take
// apart: savedDBBytes' two, and the format fixture's tree-layout file
// (see TestFormatFixture), whose sequences the loader converts.
func loaderInputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	single, sharded := savedDBBytes(tb)
	tree, err := os.ReadFile(filepath.Join("testdata", "format", "graph-tree.rdb"))
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{"rdb1": single, "rdbs1": sharded, "rdb1-tree": tree}
}

// usable reports an error unless a loaded database answers a query,
// lists its names and takes an update through a compaction, which
// decodes every sequence of its ring. It must not panic either.
func usable(db *DB) error {
	if _, err := db.Count("?s", probeExpr, "?o"); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	db.Nodes()
	preds := db.Predicates()
	if len(preds) == 0 {
		return nil
	}
	if _, err := db.Apply([]Triple{{Subject: "new", Predicate: preds[0], Object: "new"}}, nil); err != nil {
		return fmt.Errorf("update: %w", err)
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	return nil
}

// FuzzLoadDB feeds arbitrary bytes to the database loader. Whatever
// the input — truncated, bit-flipped, or wholly synthetic, in the rdb1
// format (with wavelet matrices or trees) or the rdbs1 one — LoadDB
// must return an error or a usable database; it must never panic, and
// corrupt length prefixes must not force allocations beyond the input's
// own size.
//
// Run with: go test -run NONE -fuzz FuzzLoadDB .
func FuzzLoadDB(f *testing.F) {
	in := loaderInputs(f)
	single, sharded := in["rdb1"], in["rdbs1"]
	f.Add(single)
	f.Add(sharded)
	f.Add([]byte{})
	f.Add([]byte("rdb1"))
	f.Add([]byte("rdbs"))
	f.Add([]byte("rdb1gra1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add(single[:len(single)/2])
	f.Add(sharded[:len(sharded)/3])
	f.Add(oversizedHeader(f))
	f.Add(in["rdb1-tree"])
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
