package ringrpq

import (
	"bytes"
	"testing"
)

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

// FuzzLoadDB feeds arbitrary bytes to the database loader. Whatever
// the input — truncated, bit-flipped, or wholly synthetic, in either
// the rdb1 or rdbs1 format — LoadDB must return an error or a usable
// database; it must never panic, and corrupt length prefixes must not
// force allocations beyond the input's own size.
//
// Run with: go test -run NONE -fuzz FuzzLoadDB .
func FuzzLoadDB(f *testing.F) {
	single, sharded := savedDBBytes(f)
	f.Add(single)
	f.Add(sharded)
	f.Add([]byte{})
	f.Add([]byte("rdb1"))
	f.Add([]byte("rdbs"))
	f.Add([]byte("rdb1gra1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add(single[:len(single)/2])
	f.Add(sharded[:len(sharded)/3])
	f.Add(oversizedHeader(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDB(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully loaded database must be queryable without
		// panicking on a trivial query.
		if _, qerr := db.Count("?s", "l1", "?o"); qerr != nil {
			t.Fatalf("loaded DB rejects a trivial query: %v", qerr)
		}
	})
}

// TestLoadDBTruncations deterministically checks every prefix of both
// serialised formats: each must produce an error, never a panic (the
// regression net for what FuzzLoadDB explores randomly).
func TestLoadDBTruncations(t *testing.T) {
	single, sharded := savedDBBytes(t)
	for name, raw := range map[string][]byte{"rdb1": single, "rdbs1": sharded} {
		for i := 0; i < len(raw); i++ {
			if _, err := LoadDB(bytes.NewReader(raw[:i])); err == nil {
				t.Fatalf("%s: LoadDB of %d/%d-byte prefix succeeded", name, i, len(raw))
			}
		}
	}
}

// TestLoadDBBitFlips flips each byte of the serialised formats in a
// few positions and requires LoadDB to either reject the input or
// return a database that survives a query — never panic.
func TestLoadDBBitFlips(t *testing.T) {
	single, sharded := savedDBBytes(t)
	for name, raw := range map[string][]byte{"rdb1": single, "rdbs1": sharded} {
		for i := 0; i < len(raw); i++ {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), raw...)
				mut[i] ^= flip
				db, err := LoadDB(bytes.NewReader(mut))
				if err != nil {
					continue
				}
				// Some flips (e.g. inside dictionary names) still load;
				// the result must stay usable.
				if _, qerr := db.Count("?s", "l1", "?o"); qerr != nil {
					t.Fatalf("%s: flipped byte %d: loaded DB rejects query: %v", name, i, qerr)
				}
			}
		}
	}
}
