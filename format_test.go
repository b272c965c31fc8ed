package ringrpq

import (
	"bufio"
	"bytes"
	"context"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
)

// testdata/format holds databases that earlier builds of this package
// saved from graph.nt, and answers.txt, the answers those builds gave
// to a fixed query set: a "> subject expr object" line per query, then
// one sorted "subject object" line per solution. Three are rdb1 files
// with wavelet-matrix sequences, the one format LoadDB reads:
// graph.rdb numbers the nodes in first-appearance order,
// graph-degree.rdb by degree, as builds did before the locality
// numbering, and graph-locality.rdb is the graph as a fresh build now
// writes it, its nodes numbered by a breadth-first search from the
// hubs. Each must keep loading, answering the same and re-saving as
// itself byte for byte (a loaded file keeps its numbering), and a fresh
// build of graph.nt must keep saving graph-locality.rdb. The other two
// are formats older builds also wrote, graph-tree.rdb (rdb1 with
// wavelet-tree sequences) and graph-3shards.rdb (rdbs1, three shards):
// LoadDB rejects each, naming its format and the last commit that
// reads it, so that the file can be upgraded there.
func TestFormatFixture(t *testing.T) {
	dir := filepath.Join("testdata", "format")
	read := func(file string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	queries, want := readAnswers(t, filepath.Join(dir, "answers.txt"))
	check := func(name string, db *DB, saveAs string) {
		t.Helper()
		for i, q := range queries {
			res, err := db.Query(context.Background(), q[0], q[1], q[2])
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			got := make([]string, len(res))
			for j, s := range res {
				got[j] = s.Subject + " " + s.Object
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s %v: %d solutions %v, want %d %v", name, q, len(got), got, len(want[i]), want[i])
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if saved := read(saveAs); !bytes.Equal(buf.Bytes(), saved) {
			t.Fatalf("%s: Save (%d bytes) differs from %s (%d bytes)", name, buf.Len(), saveAs, len(saved))
		}
	}

	b := NewBuilder()
	if err := b.Load(bytes.NewReader(read("graph.nt"))); err != nil {
		t.Fatal(err)
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	check("rebuilt graph.nt", built, "graph-locality.rdb")

	for _, file := range []string{"graph.rdb", "graph-degree.rdb", "graph-locality.rdb"} {
		loaded, err := LoadDB(bytes.NewReader(read(file)))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		check(file, loaded, file)
	}

	for file, format := range map[string]string{
		"graph-tree.rdb":    "wavelet-tree",
		"graph-3shards.rdb": "rdbs1",
	} {
		_, err := LoadDB(bytes.NewReader(read(file)))
		if err == nil {
			t.Fatalf("%s: loaded", file)
		}
		for _, sub := range []string{format, "d7a9cda"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", file, err, sub)
			}
		}
	}
}

// readAnswers parses answers.txt (see TestFormatFixture).
func readAnswers(t *testing.T, path string) (queries [][3]string, answers [][]string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if q, ok := strings.CutPrefix(line, "> "); ok {
			fs := strings.Fields(q)
			if len(fs) != 3 {
				t.Fatalf("bad query line %q", line)
			}
			queries = append(queries, [3]string{fs[0], fs[1], fs[2]})
			answers = append(answers, []string{})
			continue
		}
		if len(answers) == 0 {
			t.Fatalf("solution line %q before any query", line)
		}
		answers[len(answers)-1] = append(answers[len(answers)-1], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 {
		t.Fatal("no queries in the fixture")
	}
	return queries, answers
}

// TestIndexBytesPerTriple guards the index's space on the benchmark's
// g100k graph (datagen with 20 000 nodes, 100 000 edge draws, 60
// predicates, seed 1, loaded from its triple file as rpqd loads it):
// IndexBytes per completed triple must stay at or under 4.80.
func TestIndexBytesPerTriple(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60})
	var nt bytes.Buffer
	if err := triples.Dump(&nt, g); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	if err := b.Load(&nt); err != nil {
		t.Fatal(err)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats().Index
	perTriple := float64(s.IndexBytes) / float64(s.CompletedEdges)
	t.Logf("g100k: %d bytes over %d completed triples = %.4f B/triple", s.IndexBytes, s.CompletedEdges, perTriple)
	if perTriple > 4.80 {
		t.Fatalf("index takes %.4f bytes per triple, want ≤ 4.80", perTriple)
	}
}

// oversizedHeader returns an rdb1 file that is all header: valid
// dictionaries, then a ring, its first wavelet matrix and that
// matrix's first level each claiming 2^32 triples, and nothing after —
// none of the 512 MB of words such a claim would need.
func oversizedHeader(tb testing.TB) []byte {
	tb.Helper()
	b := NewBuilder()
	b.Add("a", "p", "b")
	db, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	const n = 1 << 32
	nodes := uint32(db.g.NumNodes())
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Magic(fileMagic)
	db.g.EncodeMeta(w)
	w.Magic("rng1")
	w.Int(n)
	w.Int(int(nodes))
	w.Uvarint(uint64(db.g.NumCompletedPreds()))
	w.Int(0) // a wavelet matrix
	w.Magic("wm01")
	w.Int(n)
	w.Uvarint(uint64(nodes))
	w.Int(max(1, bits.Len32(nodes-1)))
	w.Magic("bv01")
	w.Int(n)
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A ring holds fewer than 2^32 triples; a file claiming more is
// rejected from its header, before anything that large is allocated.
func TestLoadDBRejects32BitOverflow(t *testing.T) {
	_, err := LoadDB(bytes.NewReader(oversizedHeader(t)))
	if err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("LoadDB of a 2^32-triple header: err %v, want the 32-bit limit", err)
	}
}
