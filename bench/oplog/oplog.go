// Package oplog turns a seed into the fixed list of requests one
// benchmark run sends. The log is fixed work: the same seed gives the
// same ops in the same order, every pass of a run executes each op
// once, and the SHA-256 of the request bodies goes into the run's
// provenance so two rows can be shown to have measured the same thing.
package oplog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"

	"ringrpq/internal/pathexpr"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// Every request carries the same cap and deadline, so a response that
// fills neither is complete and comparable with the oracle's.
const (
	Limit   = 1000
	Timeout = "2s"
)

// Kind is the endpoint an op is sent to.
type Kind int

const (
	Query  Kind = iota // POST /query
	Select             // POST /select
	Update             // POST /update
)

// Path returns the endpoint of the kind.
func (k Kind) Path() string {
	return [...]string{"/query", "/select", "/update"}[k]
}

// Triple is one string-form update edge.
type Triple struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// Op is one request of the log. Exactly the fields of its Kind are set.
type Op struct {
	Kind Kind
	// Subject and Object are node names, "" for a variable (Query).
	Subject, Expr, Object string
	// Pattern is the graph-pattern text (Select).
	Pattern string
	// Adds and Dels are one update batch (Update).
	Adds, Dels []Triple
	// Class is the endpoint class of a query ("c2v" or "v2v"), the
	// join shape of a pattern ("star", "path", "hybrid"), or "update".
	Class string
}

// IsRead reports whether the op leaves the graph unchanged.
func (op Op) IsRead() bool { return op.Kind != Update }

// Body renders the JSON request body. profile asks the server for its
// span tree (reads only; /update has no such field).
func (op Op) Body(profile bool) []byte {
	var v any
	switch op.Kind {
	case Query:
		v = struct {
			Subject string `json:"subject"`
			Expr    string `json:"expr"`
			Object  string `json:"object"`
			Limit   int    `json:"limit"`
			Timeout string `json:"timeout"`
			Profile bool   `json:"profile,omitempty"`
		}{op.Subject, op.Expr, op.Object, Limit, Timeout, profile}
	case Select:
		v = struct {
			Query   string `json:"query"`
			Limit   int    `json:"limit"`
			Timeout string `json:"timeout"`
			Profile bool   `json:"profile,omitempty"`
		}{op.Pattern, Limit, Timeout, profile}
	default:
		v = struct {
			Add []Triple `json:"add,omitempty"`
			Del []Triple `json:"del,omitempty"`
		}{op.Adds, op.Dels}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return b
}

// SHA returns the hex SHA-256 of the log's request bodies in order.
func SHA(ops []Op) string {
	h := sha256.New()
	for _, op := range ops {
		h.Write([]byte(op.Kind.Path()))
		h.Write(op.Body(false))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fromQuery(q workload.Query) Op {
	class := "v2v"
	if q.ConstToVar() {
		class = "c2v"
	}
	return Op{Kind: Query, Subject: q.Subject, Expr: pathexpr.String(q.Expr), Object: q.Object, Class: class}
}

// Distinct draws n distinct Table-1 queries over g (fewer when the
// generator keeps repeating itself, which it does not on the benchmark
// graphs). Distinctness is what makes a scan over the log defeat an LRU
// smaller than it.
func Distinct(g *triples.Graph, seed int64, n int) []Op {
	seen := map[string]bool{}
	var out []Op
	for _, q := range workload.Generate(g, workload.Config{Seed: seed, Total: n + n/4}) {
		op := fromQuery(q)
		key := string(op.Body(false))
		if seen[key] {
			continue
		}
		seen[key] = true
		if out = append(out, op); len(out) == n {
			break
		}
	}
	return out
}

// FromPool returns n of a fixed pool of distinct Table-1 queries, chosen
// and ordered by seed; the pool itself is drawn from poolSeed. A
// thousand queries drawn afresh per seed differ from seed to seed by
// 9 % in their mean cost and 12–44 % in their upper percentiles through
// the draw alone, because one query in eighty is a closure over the most
// frequent predicate and costs ten times the rest. Taking four fifths of
// one pool halves that, at the price that two seeds share most ops.
func FromPool(g *triples.Graph, poolSeed, seed int64, pool, n int) []Op {
	ops := shuffled(Distinct(g, poolSeed, pool), seed)
	return ops[:min(n, len(ops))]
}

func shuffled(ops []Op, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// Zipf draws n ops from a pool of distinct Table-1 queries with a
// Zipf(s) rank distribution: a few queries carry most of the traffic
// and the whole pool fits the server's result cache.
func Zipf(g *triples.Graph, seed int64, pool, n int, s float64) []Op {
	qs := Distinct(g, seed, pool)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(rng, s, 1, uint64(len(qs)-1))
	out := make([]Op, n)
	for i := range out {
		out[i] = qs[z.Uint64()]
	}
	return out
}

// Patterns returns a fixed pool of graph patterns over g in an order
// drawn from seed: the candidates the generator emits for poolSeed, cut
// down to those keep accepts and plannerPathological does not list,
// shuffled. The whole pool is the log. Nothing here asks the program
// under test, so a log depends on the seed alone.
//
// keep is a deterministic cost bound (see oracle.Affordable): most of
// what the generator emits joins hub to hub, cannot finish inside the
// request deadline, and would measure the deadline instead of the
// engine. What remains still spans three orders of magnitude in cost,
// and a log of two hundred such ops drawn afresh per seed differs from
// seed to seed by 10–30 % in its mean and tail for that reason alone.
// A log ten times longer would average that out but does not fit a
// run, and 200 of a pool of 263 still ranged over 16 % in rpqd's CPU per
// op from seed to seed when one seed repeats within 1–5 %. Running the
// whole pool does average it out, at the price that a seed is an order,
// not a draw.
func Patterns(g *triples.Graph, poolSeed, seed int64, candidates int, keep func(Op) bool) []Op {
	var pool []Op
	for _, p := range workload.GeneratePatterns(g, workload.PatternConfig{Seed: poolSeed, Total: candidates}) {
		if plannerPathological[p.Text] {
			continue
		}
		if op := (Op{Kind: Select, Pattern: p.Text, Class: p.Class}); keep(op) {
			pool = append(pool, op)
		}
	}
	return shuffled(pool, seed)
}

// MixedConfig is the read/write mix of Mixed.
type MixedConfig struct {
	Total      int
	WriteRatio float64
}

// Mixed draws an interleaved stream of Table-1 reads and update batches
// (16 edges, a fifth of them deletes of existing edges, a tenth of the
// adds minting a new node).
func Mixed(g *triples.Graph, seed int64, cfg MixedConfig) []Op {
	mixed := workload.GenerateMixed(g, workload.MixedConfig{
		Seed: seed, Total: cfg.Total, WriteRatio: cfg.WriteRatio,
		BatchSize: 16, DeleteFrac: 0.2, FreshNodeFrac: 0.1,
	})
	out := make([]Op, len(mixed))
	for i, m := range mixed {
		if !m.IsUpdate() {
			out[i] = fromQuery(*m.Query)
			continue
		}
		op := Op{Kind: Update, Class: "update"}
		for _, t := range m.Adds {
			op.Adds = append(op.Adds, Triple(t))
		}
		for _, t := range m.Dels {
			op.Dels = append(op.Dels, Triple(t))
		}
		out[i] = op
	}
	return out
}
