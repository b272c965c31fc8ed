package ringrpq

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"ringrpq/internal/overlay"
	"ringrpq/internal/ring"
	"ringrpq/internal/ring/ringtest"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// encodeRing is r's serialised form: equal bytes, equal rings.
func encodeRing(t testing.TB, r *ring.Ring) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	r.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rebuiltRing is the compaction's oracle: the base snapshot's ring
// decoded, less its tombstones, plus its adds, built anew by FromTriples.
func rebuiltRing(base *snapshot) *ring.Ring {
	dels := map[overlay.Edge]bool{}
	for _, e := range base.ov.Dels() {
		dels[e] = true
	}
	var ts []triples.Triple
	for _, tr := range ringtest.Triples(base.r) {
		if !dels[overlay.Edge(tr)] {
			ts = append(ts, tr)
		}
	}
	ts = append(ts, edgeTriples(base.ov.Adds())...)
	return ring.FromTriples(ts, base.numNodes, base.r.NumPreds)
}

// mixedUpdates returns the update batches of a mixed_rw-shaped stream
// over fg (seed 2), in stream order.
func mixedUpdates(fg *triples.Graph, batches int) [][2][]Triple {
	var out [][2][]Triple
	conv := func(us []workload.UpdateTriple) []Triple {
		ts := make([]Triple, len(us))
		for i, u := range us {
			ts[i] = Triple{u.S, u.P, u.O}
		}
		return ts
	}
	for _, op := range workload.GenerateMixed(fg, workload.MixedConfig{Seed: 2, Total: 5 * batches}) {
		if op.IsUpdate() {
			out = append(out, [2][]Triple{conv(op.Adds), conv(op.Dels)})
		}
	}
	return out[:batches]
}

// Every compaction merges the overlay into the ring, and the merged
// ring is the one a rebuild from the decoded triples makes, byte for
// byte: g100k under 200 mixed update batches, compacting at 1000
// overlay edges in the background as rpqd does.
func TestUpdateCompactionMergeEqualsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 150 k-triple g100k database")
	}
	nt, fg, _ := g100k(t)
	db := buildNT(t, nt)
	db.SetCompactionThreshold(1000)
	var bases []*snapshot
	var merged []*ring.Ring
	compactStageHook = func(stage string) {
		switch stage {
		case "base-selected":
			bases = append(bases, db.h.cur.Load())
		case "swapped":
			merged = append(merged, db.h.cur.Load().r)
		}
	}
	defer func() { compactStageHook = nil }()
	ctx := context.Background()
	for _, u := range mixedUpdates(fg, 200) {
		if _, err := db.Apply(ctx, u[0], u[1]); err != nil {
			t.Fatal(err)
		}
		// One compaction at a time, with no Apply racing it, so the
		// snapshot the hook sees at "base-selected" is the base.
		for db.h.compacting.Load() {
			runtime.Gosched()
		}
	}
	if len(merged) < 3 || len(merged) != len(bases) {
		t.Fatalf("%d compactions swapped, %d based: want the same number, at least 3", len(merged), len(bases))
	}
	for i, base := range bases {
		if !bytes.Equal(encodeRing(t, merged[i]), encodeRing(t, rebuiltRing(base))) {
			t.Fatalf("compaction %d (%d overlay edges over %d triples): merged ring differs from the rebuild",
				i, base.ov.Weight(), base.r.N)
		}
	}
	t.Logf("%d compactions, each byte-identical to its rebuild", len(merged))
}
