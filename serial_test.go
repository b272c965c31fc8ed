package ringrpq

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := metroDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != db.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", loaded.Stats(), db.Stats())
	}
	for _, q := range [][3]string{
		{"Baquedano", "l5+/bus", "?y"},
		{"?x", "(l1|l2|l5)+", "?y"},
		{"?x", "^bus", "BellasArtes"},
		{"Baquedano", "l5+/bus", "SantaAna"},
	} {
		want := sols(t, db, q[0], q[1], q[2])
		got := sols(t, loaded, q[0], q[1], q[2])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: loaded %v, want %v", q, got, want)
		}
	}
}

func sols(t *testing.T, db *DB, s, e, o string) []string {
	t.Helper()
	res, err := db.Query(s, e, o)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Subject + "|" + r.Object
	}
	sort.Strings(out)
	return out
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"xxxx",
		"rdb1 but then garbage follows here",
	}
	for _, c := range cases {
		if _, err := LoadDB(strings.NewReader(c)); err == nil {
			t.Errorf("LoadDB(%q) succeeded", c)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	db := metroDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{1, 8, len(data) / 2, len(data) - 1} {
		if _, err := LoadDB(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncated to %d bytes: load succeeded", n)
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	db := metroDB(t)
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same DB differ")
	}
}
