package core

import (
	"ringrpq/internal/glushkov"
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
		c.wide = glushkov.NewWideFor(c.a, e.r.NumPreds)
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

// ringStep is the multiword analogue of ringStep + part2: part 1
// enumerates all distinct predicates of L_p[b, end) (no B[v] pruning)
// and filters by B[p]; part 2 enumerates the distinct subjects of the
// predicate's L_s range, drops tombstoned edges exactly as the narrow
// part2 (o < 0 marks the full-range phase), and dedups against the
// visited map.
func (r *wideRun) ringStep(o int64, b, end int, d glushkov.Mask) error {
	e := r.e
	if err := e.checkDeadline(); err != nil {
		return err
	}
	var failure error
	wavelet.RangeDistinct(e.r.Lp, b, end, func(p uint32, rb, re int) bool {
		e.stats.WaveletVisits++
		bp := r.wd.BFor(p)
		if bp == nil || !d.Intersects(bp) {
			return true
		}
		e.stats.ProductEdges++
		r.wd.StepRevInto(r.dst, d, p)
		if !r.dst.Any() {
			return true
		}
		checkDels := e.ov.DelsForPred(p) > 0
		cp := e.r.Cp[p]
		wavelet.RangeDistinct(e.r.Ls, cp+rb, cp+re, func(s uint32, sb, se int) bool {
			e.stats.WaveletVisits++
			e.stats.SubjectVisits++
			if failure = e.checkDeadline(); failure != nil {
				return false
			}
			if checkDels {
				if o >= 0 {
					if e.ov.Deleted(Edge{S: s, P: p, O: uint32(o)}) {
						return true
					}
				} else if se-sb <= e.ov.DeletedPS(p, s) {
					return true
				}
			}
			failure = r.arrive(s, r.dst)
			return failure == nil
		})
		return failure == nil
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
// a time: the node's object range in the ring, then the overlay adds
// entering it.
func (r *wideRun) drain() error {
	for head := 0; head < len(r.queue); head++ {
		n := r.queue[head]
		d := r.pending[n]
		delete(r.pending, n)
		if int(n) < r.e.r.NumNodes {
			if b, end := r.e.r.ObjectRange(n); b < end {
				if err := r.ringStep(int64(n), b, end, d); err != nil {
					return err
				}
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
// the ring's complete L_p range and every overlay add with the final
// states active and F minus the initial state pre-visited everywhere,
// then the ordinary drain.
func (e *Engine) wideFullRange(c *compiledAutomaton, emit EmitFunc) error {
	run := e.newWideRun(c, emit)
	run.base = run.wd.F.Clone()
	run.base[0] &^= 1 // keep the initial state reportable
	if err := run.ringStep(-1, 0, e.r.N, run.wd.F); err != nil {
		return err
	}
	if err := run.addsStep(e.ov.Adds(), run.wd.F); err != nil {
		return err
	}
	return run.drain()
}
