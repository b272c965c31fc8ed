package core

// A cancelled request context stops an evaluation that emits nothing:
// the kernel reads ctx at entry and polls it at its checkDeadline
// probes, so the work after a cancellation is at most one probe
// interval (64 probes), whatever the traversal's size.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ringrpq/internal/pathexpr"
	"ringrpq/internal/triples"
)

// cancelChain builds v0 -p-> v1 -p-> … -p-> v(k-1) and one q edge
// away from it. (?x, q/p*, v(k-1)) then walks the whole chain back and
// finds no q edge: a traversal that emits nothing.
func cancelChain(k int) (*triples.Graph, Query) {
	b := triples.NewBuilder()
	for i := 0; i+1 < k; i++ {
		b.Add(fmt.Sprintf("v%d", i), "p", fmt.Sprintf("v%d", i+1))
	}
	b.Add("a", "q", "b")
	g := b.Build()
	last, _ := g.Nodes.Lookup(fmt.Sprintf("v%d", k-1))
	return g, Query{Subject: Variable, Expr: pathexpr.MustParse("q/p*"), Object: int64(last)}
}

// cancelAt is an empty Delta that cancels a context on its n-th
// AddsInto call, which the kernel makes once per expanded node: a
// cancellation that arrives while the traversal runs, at a point the
// test fixes.
type cancelAt struct {
	noDelta
	n      int
	cancel context.CancelFunc
}

func (d *cancelAt) TouchesPred(uint32) bool { return true }

func (d *cancelAt) AddsInto(uint32) []Edge {
	if d.n--; d.n == 0 {
		d.cancel()
	}
	return nil
}

func TestEvalCancelledBeforeStart(t *testing.T) {
	g, q := cancelChain(5000)
	e := newEngine(g)
	none := func(s, o uint32) bool {
		t.Fatalf("emitted (%d, %d)", s, o)
		return false
	}
	full, err := e.Eval(context.Background(), q, Options{}, none)
	if err != nil || full.ProductNodes < 4999 {
		t.Fatalf("uncancelled: %+v, err %v; want the whole chain", full, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {DisableBatching: true}} {
		st, err := e.Eval(ctx, q, opts, none)
		if !errors.Is(err, context.Canceled) || st != (Stats{}) {
			t.Fatalf("%+v: %+v, err %v; want context.Canceled before any work", opts, st, err)
		}
	}
}

// The cancellation arrives at the 100th of 5000 expanded nodes; the
// next probe stops the traversal a few nodes later, and the exact
// counts pin where.
func TestEvalCancelledMidTraversal(t *testing.T) {
	g, q := cancelChain(5000)
	for _, tc := range []struct {
		name string
		opts Options
		want Stats
	}{
		{"batched", Options{}, Stats{ProductNodes: 111, ProductEdges: 112, WaveletVisits: 2014, SubjectVisits: 1568}},
		{"unbatched", Options{DisableBatching: true}, Stats{ProductNodes: 106, ProductEdges: 106, WaveletVisits: 1910, SubjectVisits: 1484}},
	} {
		e := newEngine(g)
		ctx, cancel := context.WithCancel(context.Background())
		// Node space one past the ring's, so that the kernel keeps the
		// delta attached and calls it.
		e.SetDelta(&cancelAt{n: 100, cancel: cancel}, g.NumNodes()+1)
		st, err := e.Eval(ctx, q, tc.opts, func(s, o uint32) bool {
			t.Fatalf("emitted (%d, %d)", s, o)
			return false
		})
		cancel()
		if !errors.Is(err, context.Canceled) || st != tc.want {
			t.Fatalf("%s: %+v, err %v; want context.Canceled with %+v", tc.name, st, err, tc.want)
		}
	}
}
