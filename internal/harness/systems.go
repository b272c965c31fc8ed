package harness

import (
	"context"
	"errors"
	"time"

	"ringrpq/internal/baseline/alp"
	"ringrpq/internal/baseline/bfs"
	"ringrpq/internal/baseline/relational"
	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// resolve maps a query's endpoint names to ids; ok=false means a
// constant does not occur in the graph (empty result, matching the
// paper's filtering of queries over absent constants).
func resolve(g *triples.Graph, q workload.Query) (s, o int64, ok bool) {
	s, o = core.Variable, core.Variable
	if q.Subject != "" {
		id, found := g.Nodes.Lookup(q.Subject)
		if !found {
			return 0, 0, false
		}
		s = int64(id)
	}
	if q.Object != "" {
		id, found := g.Nodes.Lookup(q.Object)
		if !found {
			return 0, 0, false
		}
		o = int64(id)
	}
	return s, o, true
}

// Ring is the paper's system: the core engine over the ring index.
type Ring struct {
	g      *triples.Graph
	r      *ring.Ring
	engine *core.Engine
}

// NewRing builds the ring system.
func NewRing(g *triples.Graph) *Ring {
	r := ring.New(g, ring.WaveletMatrix)
	return &Ring{
		g:      g,
		r:      r,
		engine: core.NewEngine(r, func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }),
	}
}

// Name implements System.
func (s *Ring) Name() string { return "Ring" }

// SizeBytes implements System with the paper's accounting: the RPQ
// engine needs L_s, L_p and the C arrays only.
func (s *Ring) SizeBytes() int { return s.r.QuerySizeBytes() }

// Engine exposes the underlying engine (for ablation benchmarks).
func (s *Ring) Engine() *core.Engine { return s.engine }

// Graph exposes the underlying graph (for the service-pool benchmark).
func (s *Ring) Graph() *triples.Graph { return s.g }

// Ring exposes the underlying ring index (for the service-pool
// benchmark).
func (s *Ring) Ring() *ring.Ring { return s.r }

// Run implements System.
func (s *Ring) Run(q workload.Query, limit int, timeout time.Duration) (int, bool, error) {
	sid, oid, ok := resolve(s.g, q)
	if !ok {
		return 0, false, nil
	}
	n := 0
	_, err := s.engine.Eval(
		context.Background(),
		core.Query{Subject: sid, Expr: q.Expr, Object: oid},
		core.Options{Limit: limit, Timeout: timeout},
		func(uint32, uint32) bool { n++; return true })
	if errors.Is(err, core.ErrTimeout) {
		return n, true, nil
	}
	return n, false, err
}

// BFS is the navigational baseline (adjacency lists + Thompson NFA).
type BFS struct {
	g  *triples.Graph
	ix *bfs.Index
}

// NewBFS builds the navigational baseline.
func NewBFS(g *triples.Graph) *BFS { return &BFS{g: g, ix: bfs.New(g)} }

// Name implements System.
func (s *BFS) Name() string { return "NavBFS" }

// SizeBytes implements System.
func (s *BFS) SizeBytes() int { return s.ix.SizeBytes() }

// Run implements System.
func (s *BFS) Run(q workload.Query, limit int, timeout time.Duration) (int, bool, error) {
	sid, oid, ok := resolve(s.g, q)
	if !ok {
		return 0, false, nil
	}
	n := 0
	err := s.ix.Eval(sid, q.Expr, oid, bfs.Options{Limit: limit, Timeout: timeout},
		func(uint32, uint32) bool { n++; return true })
	if errors.Is(err, bfs.ErrTimeout) {
		return n, true, nil
	}
	return n, false, err
}

// ALP is the SPARQL-spec baseline (Jena-style).
type ALP struct {
	g  *triples.Graph
	ix *alp.Index
}

// NewALP builds the SPARQL-spec baseline.
func NewALP(g *triples.Graph) *ALP { return &ALP{g: g, ix: alp.New(g)} }

// Name implements System.
func (s *ALP) Name() string { return "ALP" }

// SizeBytes implements System.
func (s *ALP) SizeBytes() int { return s.ix.SizeBytes() }

// Run implements System.
func (s *ALP) Run(q workload.Query, limit int, timeout time.Duration) (int, bool, error) {
	sid, oid, ok := resolve(s.g, q)
	if !ok {
		return 0, false, nil
	}
	n := 0
	err := s.ix.Eval(sid, q.Expr, oid, alp.Options{Limit: limit, Timeout: timeout},
		func(uint32, uint32) bool { n++; return true })
	if errors.Is(err, alp.ErrTimeout) {
		return n, true, nil
	}
	return n, false, err
}

// Relational is the transitive-closure-over-joins baseline
// (Virtuoso-style).
type Relational struct {
	g  *triples.Graph
	ix *relational.Index
}

// NewRelational builds the relational baseline.
func NewRelational(g *triples.Graph) *Relational {
	return &Relational{g: g, ix: relational.New(g)}
}

// Name implements System.
func (s *Relational) Name() string { return "Relational" }

// SizeBytes implements System.
func (s *Relational) SizeBytes() int { return s.ix.SizeBytes() }

// Run implements System.
func (s *Relational) Run(q workload.Query, limit int, timeout time.Duration) (int, bool, error) {
	sid, oid, ok := resolve(s.g, q)
	if !ok {
		return 0, false, nil
	}
	n := 0
	err := s.ix.Eval(sid, q.Expr, oid, relational.Options{Limit: limit, Timeout: timeout},
		func(uint32, uint32) bool { n++; return true })
	if errors.Is(err, relational.ErrTimeout) {
		return n, true, nil
	}
	return n, false, err
}
