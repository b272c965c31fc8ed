package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// This file is the kernel's fallback for expressions beyond the
// 64-state bit-parallel engine (and the Options.DisableCompiled
// oracle), using glushkov.Wide masks. It keeps the same three-part
// backward traversal, item at a time, but tracks visited states in a
// hash map of multiword masks and skips the per-wavelet-node filtering
// (the masks no longer fit the flat uint64 arrays); the paper's general
// case pays the same O(m/w) factor. Such expressions are vanishingly
// rare in real logs — the Wikidata log's queries have fewer than 16
// predicates (§5).

// EachInEdge streams the union in-edges of object o as (p, s) pairs:
// every sub-ring's object range (tombstones dropped) followed by the
// overlay's adds. Return false to stop. Per-edge wavelet access — the
// generic enumeration behind the pattern executor's union-mode edge
// scans.
func EachInEdge(rings []*ring.Ring, ov Delta, o uint32, fn func(p, s uint32) bool) bool {
	for _, r := range rings {
		if int(o) >= r.NumNodes {
			continue
		}
		b, end := r.ObjectRange(o)
		for i := b; i < end; i++ {
			p := r.Lp.Access(i)
			s := r.Ls.Access(r.Cp[p] + r.Lp.Rank(p, i))
			if !ov.Deleted(Edge{S: s, P: p, O: o}) && !fn(p, s) {
				return false
			}
		}
	}
	for _, ed := range ov.AddsInto(o) {
		if !fn(ed.P, ed.S) {
			return false
		}
	}
	return true
}

// wideRun drains a multiword BFS worklist. visited maps nodes to their
// accumulated state masks; reach is called for nodes newly reaching the
// initial state.
type wideRun struct {
	e       *Engine
	wd      *glushkov.Wide
	visited map[uint32]glushkov.Mask
	// base holds states that count as visited at every node (the
	// full-range phase); nil otherwise. Every node's visited mask starts
	// as a copy, since pre-visiting all of them is impractical.
	base    glushkov.Mask
	queue   []uint32
	pending map[uint32]glushkov.Mask // states enqueued but not expanded
	dst     glushkov.Mask
	reach   EmitFunc
}

// newWideRun starts a run of c's multiword simulation (built once per
// memo entry).
func (e *Engine) newWideRun(c *compiledAutomaton, reach EmitFunc) *wideRun {
	if c.wide == nil {
		c.wide = glushkov.NewWideFor(c.a, e.numPreds)
	}
	return &wideRun{
		e:       e,
		wd:      c.wide,
		visited: map[uint32]glushkov.Mask{},
		pending: map[uint32]glushkov.Mask{},
		dst:     c.wide.NewMask(),
		reach:   reach,
	}
}

// arrive records reaching node n with states d: dedup against the
// visited map, report when the initial state is newly reached, and
// enqueue the remaining work (Init carries none).
func (r *wideRun) arrive(n uint32, d glushkov.Mask) error {
	v := r.visited[n]
	if v == nil {
		if r.base != nil {
			v = r.base.Clone()
		} else {
			v = r.wd.NewMask()
		}
		r.visited[n] = v
	}
	fresh := d.Clone()
	fresh.AndNot(v)
	if !fresh.Any() {
		return nil
	}
	r.e.stats.ProductNodes++
	v.Or(d)
	if fresh.Test(0) {
		if !r.reach(n, 0) {
			return errLimit
		}
		fresh[0] &^= 1
	}
	if !fresh.Any() {
		return nil
	}
	if p := r.pending[n]; p != nil {
		p.Or(fresh)
	} else {
		r.pending[n] = fresh
		r.queue = append(r.queue, n)
	}
	return nil
}

// ringStep is the multiword analogue of ringStep + part2 over one
// sub-ring: part 1 enumerates all distinct predicates of L_p[b, end)
// (no B[v] pruning) and filters by B[p]; part 2 enumerates the distinct
// subjects of the predicate's L_s range, drops tombstoned edges exactly
// as the narrow part2 (o < 0 marks the full-range phase), and dedups
// against the visited map.
func (r *wideRun) ringStep(w *ringWork, o int64, b, end int, d glushkov.Mask) error {
	e := r.e
	if err := e.checkDeadline(); err != nil {
		return err
	}
	var failure error
	wavelet.RangeDistinct(w.r.Lp, b, end, func(p uint32, rb, re int) {
		if failure != nil {
			return
		}
		e.stats.WaveletVisits++
		bp := r.wd.BFor(p)
		if bp == nil || !d.Intersects(bp) {
			return
		}
		e.stats.ProductEdges++
		r.wd.StepRevInto(r.dst, d, p)
		if !r.dst.Any() {
			return
		}
		checkDels := e.ov.DelsForPred(p) > 0
		cp := w.r.Cp[p]
		wavelet.RangeDistinct(w.r.Ls, cp+rb, cp+re, func(s uint32, sb, se int) {
			if failure != nil {
				return
			}
			e.stats.WaveletVisits++
			if failure = e.checkDeadline(); failure != nil {
				return
			}
			if checkDels {
				if o >= 0 {
					if e.ov.Deleted(Edge{S: s, P: p, O: uint32(o)}) {
						return
					}
				} else if se-sb <= e.ov.DeletedPS(p, s) {
					return
				}
			}
			failure = r.arrive(s, r.dst)
		})
	})
	return failure
}

// addsStep steps states d over overlay adds whose targets hold them
// (the multiword addsStep).
func (r *wideRun) addsStep(adds []Edge, d glushkov.Mask) error {
	for _, ed := range adds {
		if err := r.e.checkDeadline(); err != nil {
			return err
		}
		r.wd.StepRevInto(r.dst, d, ed.P)
		if !r.dst.Any() {
			continue
		}
		r.e.stats.ProductEdges++
		if err := r.arrive(ed.S, r.dst); err != nil {
			return err
		}
	}
	return nil
}

// drain expands the worklist to exhaustion, one (node, states) item at
// a time: every ring's object range, then the overlay adds entering
// the node.
func (r *wideRun) drain() error {
	for head := 0; head < len(r.queue); head++ {
		n := r.queue[head]
		d := r.pending[n]
		delete(r.pending, n)
		for _, w := range r.e.work {
			if int(n) >= w.r.NumNodes {
				continue
			}
			b, end := w.r.ObjectRange(n)
			if b == end {
				continue
			}
			if err := r.ringStep(w, int64(n), b, end, d); err != nil {
				return err
			}
		}
		if err := r.addsStep(r.e.ov.AddsInto(n), d); err != nil {
			return err
		}
	}
	return nil
}

// wideFrom is runFrom beyond 64 states: node o starts holding the final
// states, without counting as having reached the initial state (parity
// with the narrow path's start).
func (e *Engine) wideFrom(c *compiledAutomaton, o uint32, emit EmitFunc) error {
	run := e.newWideRun(c, emit)
	run.visited[o] = run.wd.F.Clone()
	run.pending[o] = run.wd.F.Clone()
	run.queue = append(run.queue, o)
	return run.drain()
}

// wideFullRange is fullRangeSources beyond 64 states: one step over
// every ring's complete L_p range and every overlay add with the final
// states active and F minus the initial state pre-visited everywhere,
// then the ordinary drain.
func (e *Engine) wideFullRange(c *compiledAutomaton, emit EmitFunc) error {
	run := e.newWideRun(c, emit)
	run.base = run.wd.F.Clone()
	run.base[0] &^= 1 // keep the initial state reportable
	for _, w := range e.work {
		if err := run.ringStep(w, -1, 0, w.r.N, run.wd.F); err != nil {
			return err
		}
	}
	if err := run.addsStep(e.ov.Adds(), run.wd.F); err != nil {
		return err
	}
	return run.drain()
}
