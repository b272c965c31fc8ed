package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ringrpq/internal/overlay"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// Union-mode (overlay-aware) pattern execution must agree with plain
// static execution over the merged graph: the dirty path trades LTJ
// for all-steps pipelining, so this differential covers triple
// patterns, RPQ clauses and variable predicates on both layouts.

type dirtyWorld struct {
	xDirty  *Exec // static ring + overlay
	xMerged *Exec // merged graph, plain path (ground truth)
}

func buildDirtyWorld(t *testing.T, seed int64) *dirtyWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nv, np = 12, 3
	intern := func(b *triples.Builder) {
		for i := 0; i < nv; i++ {
			b.Nodes().Intern(fmt.Sprintf("n%02d", i))
		}
		for i := 0; i < np; i++ {
			b.Preds().Intern(fmt.Sprintf("p%c", 'a'+i))
		}
	}
	type be struct{ s, p, o uint32 }
	seen := map[be]bool{}
	var universe []be
	for i := 0; i < 50; i++ {
		e := be{uint32(rng.Intn(nv)), uint32(rng.Intn(np)), uint32(rng.Intn(nv))}
		if !seen[e] {
			seen[e] = true
			universe = append(universe, e)
		}
	}
	var static, added []be
	for _, e := range universe {
		if rng.Intn(3) > 0 {
			static = append(static, e)
		} else {
			added = append(added, e)
		}
	}
	deleted := static[:len(static)/5]
	kept := static[len(static)/5:]

	sb := triples.NewBuilder()
	intern(sb)
	for _, e := range static {
		sb.AddIDs(e.s, e.p, e.o)
	}
	gStatic := sb.Build()

	mb := triples.NewBuilder()
	intern(mb)
	for _, e := range kept {
		mb.AddIDs(e.s, e.p, e.o)
	}
	for _, e := range added {
		mb.AddIDs(e.s, e.p, e.o)
	}
	gMerged := mb.Build()

	complete := func(es []be) []overlay.Edge {
		out := make([]overlay.Edge, 0, 2*len(es))
		for _, e := range es {
			out = append(out,
				overlay.Edge{S: e.s, P: e.p, O: e.o},
				overlay.Edge{S: e.o, P: e.p + np, O: e.s})
		}
		return out
	}

	rS := ring.New(gStatic, ring.WaveletMatrix)
	rM := ring.New(gMerged, ring.WaveletMatrix)
	inStatic := func(e overlay.Edge) bool { return rS.Has(e.S, e.P, e.O) }
	ov := overlay.New().Apply(1, complete(added), complete(deleted), inStatic)
	w := &dirtyWorld{xDirty: NewExec(gStatic, rS), xMerged: NewExec(gMerged, rM)}
	w.xDirty.SetOverlay(ov, gStatic.NumNodes())
	return w
}

func rowsOf(t *testing.T, x *Exec, src string) []string {
	t.Helper()
	q := MustParse(src)
	vars := q.OutVars()
	var out []string
	err := runBindings(x, q, Options{}, func(b binding) bool {
		parts := make([]string, len(vars))
		for i, v := range vars {
			parts[i] = b[v]
		}
		out = append(out, strings.Join(parts, "|"))
		return true
	})
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	sort.Strings(out)
	return out
}

func TestDirtyPatternDifferential(t *testing.T) {
	patterns := []string{
		"?x pa ?y",
		"?x pa ?y . ?y pb ?z",
		"?x pa/pb* ?y",
		"?x pa ?y . ?y pb+ ?z . ?z pc ?w",
		"?x ?p ?y",
		"?x ?p ?y . ?y pa ?z",
		"?x ?p ?x",
		"SELECT ?x WHERE { ?x pa ?y . ?y ^pa ?x }",
		"n03 pa* ?y",
		"?x pb ?x",
	}
	for seed := int64(0); seed < 5; seed++ {
		w := buildDirtyWorld(t, 500+seed)
		for _, src := range patterns {
			got := rowsOf(t, w.xDirty, src)
			want := rowsOf(t, w.xMerged, src)
			if len(got) != len(want) {
				t.Fatalf("seed %d %q: %d rows vs merged %d\n got=%v\nwant=%v", seed, src, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %q: row %d = %q, merged %q", seed, src, i, got[i], want[i])
				}
			}
		}
	}
}
