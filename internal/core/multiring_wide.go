package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/ring"
)

// This file is the multi-ring kernel's fallback for expressions beyond
// the 64-state bit-parallel engine (and the Options.DisableCompiled
// oracle): a plain node-at-a-time backward BFS with multiword state
// masks and per-edge enumeration (no wavelet pruning). Such expressions
// are vanishingly rare in real logs, so the fallback optimises for
// correctness and simplicity, exactly like Engine's wide path.

// EachInEdge streams the union in-edges of object o as (p, s) pairs:
// every sub-ring's object range (tombstones dropped) followed by the
// overlay's adds. Return false to stop. Per-edge wavelet access — the
// generic enumeration behind the wide fallback and the pattern
// executor's union-mode edge scans.
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
// accumulated state masks (base pre-folded in by the caller); reach is
// called for nodes newly reaching the initial state.
type wideRun struct {
	e       *MultiRing
	wd      *glushkov.Wide
	visited map[uint32]glushkov.Mask
	queue   []uint32
	pending map[uint32]glushkov.Mask // states enqueued but not expanded
	dst     glushkov.Mask
	reach   EmitFunc
}

// newWideRun starts a run of c's multiword simulation (built once per
// memo entry).
func (e *MultiRing) newWideRun(c *compiledAutomaton, reach EmitFunc) *wideRun {
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
func (r *wideRun) arrive(n uint32, d glushkov.Mask) bool {
	v := r.visited[n]
	if v == nil {
		v = r.wd.NewMask()
		r.visited[n] = v
	}
	fresh := d.Clone()
	fresh.AndNot(v)
	if !fresh.Any() {
		return true
	}
	v.Or(d)
	if fresh.Test(0) {
		if !r.reach(n, 0) {
			return false
		}
		fresh[0] &^= 1
	}
	if !fresh.Any() {
		return true
	}
	if p := r.pending[n]; p != nil {
		p.Or(fresh)
	} else {
		r.pending[n] = fresh
		r.queue = append(r.queue, n)
	}
	return true
}

// seed queues node n holding the final states with seen already
// visited, without treating n as having reached the initial state
// (parity with the narrow path's start).
func (r *wideRun) seed(n uint32, seen glushkov.Mask) {
	r.visited[n] = seen.Clone()
	r.pending[n] = r.wd.F.Clone()
	r.queue = append(r.queue, n)
}

// drain expands the worklist to exhaustion.
func (r *wideRun) drain() error {
	for head := 0; head < len(r.queue); head++ {
		n := r.queue[head]
		d := r.pending[n]
		delete(r.pending, n)
		if d == nil || !d.Any() {
			continue
		}
		if err := r.e.checkDeadline(); err != nil {
			return err
		}
		stopped := false
		EachInEdge(r.e.rings, r.e.ov, n, func(p, s uint32) bool {
			r.wd.StepRevInto(r.dst, d, p)
			if !r.dst.Any() {
				return true
			}
			r.e.stats.ProductEdges++
			stopped = !r.arrive(s, r.dst)
			return !stopped
		})
		if stopped {
			return errLimit
		}
	}
	return nil
}

// wideFrom is runFrom beyond 64 states.
func (e *MultiRing) wideFrom(c *compiledAutomaton, o uint32, emit EmitFunc) error {
	run := e.newWideRun(c, emit)
	run.seed(o, run.wd.F)
	return run.drain()
}

// wideFullRange is fullRangeSources beyond 64 states: every node is
// queued holding the final states, with F minus the initial state
// pre-visited.
func (e *MultiRing) wideFullRange(c *compiledAutomaton, emit EmitFunc) error {
	run := e.newWideRun(c, emit)
	base := run.wd.F.Clone()
	base[0] &^= 1
	for v := 0; v < e.numNodes; v++ {
		run.seed(uint32(v), base)
	}
	return run.drain()
}
