package core

import (
	"errors"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/wavelet"
)

// The multiword fallback evaluates queries whose expressions have more
// than 63 positions, using glushkov.Wide masks. It keeps the same
// three-part backward traversal but tracks visited states in a hash map
// of multiword masks and skips the per-wavelet-node filtering (the masks
// no longer fit the flat uint64 arrays); the paper's general case pays
// the same O(m/w) factor. Such expressions are vanishingly rare in real
// logs — the Wikidata log's queries have fewer than 16 predicates (§5).

type wideState struct {
	eng     *glushkov.Wide
	visited map[uint32]glushkov.Mask
	queue   []uint32
	states  []glushkov.Mask
}

func (e *Engine) newWideState(expr pathexpr.Node) *wideState {
	a := e.compile(expr).a
	return &wideState{
		eng:     glushkov.NewWideFor(a, e.r.NumPreds),
		visited: make(map[uint32]glushkov.Mask),
	}
}

// enqueue records that node was reached with states d, returning the
// still-unvisited subset (nil when nothing is new).
func (w *wideState) enqueue(node uint32, d glushkov.Mask) glushkov.Mask {
	seen, ok := w.visited[node]
	if !ok {
		seen = d.Clone()
		w.visited[node] = seen
		w.queue = append(w.queue, node)
		w.states = append(w.states, seen.Clone())
		return seen
	}
	fresh := d.Clone()
	fresh.AndNot(seen)
	if !fresh.Any() {
		return nil
	}
	seen.Or(fresh)
	w.queue = append(w.queue, node)
	w.states = append(w.states, fresh)
	return fresh
}

func (e *Engine) wideEvalToConst(expr pathexpr.Node, o uint32, swap bool) error {
	emit := func(r uint32) bool {
		if swap {
			return e.emit(o, r)
		}
		return e.emit(r, o)
	}
	if int(o) >= e.r.NumNodes {
		return nil
	}
	w := e.newWideState(expr)
	if w.eng.A.Nullable {
		if !emit(o) {
			return errLimit
		}
	}
	w.visited[o] = w.eng.F.Clone()
	w.queue = append(w.queue, o)
	w.states = append(w.states, w.eng.F.Clone())
	return e.wideBFS(w, emit)
}

func (e *Engine) wideRunToConst(expr pathexpr.Node, o uint32, emit EmitFunc) error {
	w := e.newWideState(expr)
	w.visited[o] = w.eng.F.Clone()
	w.queue = append(w.queue, o)
	w.states = append(w.states, w.eng.F.Clone())
	return e.wideBFS(w, func(r uint32) bool { return emit(r, 0) })
}

func (e *Engine) wideEvalBothConst(expr pathexpr.Node, s, o uint32) error {
	if int(o) >= e.r.NumNodes || int(s) >= e.r.NumNodes {
		return nil
	}
	w := e.newWideState(expr)
	if w.eng.A.Nullable && s == o {
		e.emit(s, o)
		return nil
	}
	w.visited[o] = w.eng.F.Clone()
	w.queue = append(w.queue, o)
	w.states = append(w.states, w.eng.F.Clone())
	found := false
	err := e.wideBFS(w, func(r uint32) bool {
		if r == s {
			found = true
			e.emit(s, o)
			return false
		}
		return true
	})
	if found && errors.Is(err, errLimit) {
		err = nil
	}
	return err
}

func (e *Engine) wideFullRangeSources(expr pathexpr.Node, emit EmitFunc) error {
	w := e.newWideState(expr)
	base := w.eng.F.Clone()
	if base.Test(0) {
		base[0] &^= 1 // keep the initial state reportable
	}
	// Pre-visiting every node with base is impractical for multiword
	// masks; instead fold base into the step's dedup check.
	if err := e.wideStep(w, 0, e.r.N, w.eng.F, base, func(r uint32) bool { return emit(r, 0) }); err != nil {
		return err
	}
	return e.wideBFSBase(w, base, func(r uint32) bool { return emit(r, 0) })
}

func (e *Engine) wideBFS(w *wideState, emit func(uint32) bool) error {
	return e.wideBFSBase(w, nil, emit)
}

func (e *Engine) wideBFSBase(w *wideState, base glushkov.Mask, emit func(uint32) bool) error {
	for head := 0; head < len(w.queue); head++ {
		node, d := w.queue[head], w.states[head]
		b, end := e.r.ObjectRange(node)
		if err := e.wideStep(w, b, end, d, base, emit); err != nil {
			return err
		}
	}
	return nil
}

// wideStep is the multiword analogue of step+part2: part 1 enumerates
// all distinct predicates of the range (no B[v] pruning) and filters by
// B[p]; part 2 enumerates distinct subjects and dedups against the
// visited map.
func (e *Engine) wideStep(w *wideState, b, end int, d, base glushkov.Mask, emit func(uint32) bool) error {
	if err := e.checkDeadline(); err != nil {
		return err
	}
	r, stats := e.r, &e.stats
	d2 := w.eng.NewMask()
	var failure error
	wavelet.RangeDistinct(r.Lp, b, end, func(p uint32, rb, re int) {
		if failure != nil {
			return
		}
		stats.WaveletVisits++
		bp := w.eng.BFor(p)
		if bp == nil || !d.Intersects(bp) {
			return
		}
		stats.ProductEdges++
		w.eng.StepRevInto(d2, d, p)
		if !d2.Any() {
			return
		}
		lsB, lsE := r.Cp[p]+rb, r.Cp[p]+re
		wavelet.RangeDistinct(r.Ls, lsB, lsE, func(s uint32, _, _ int) {
			if failure != nil {
				return
			}
			stats.WaveletVisits++
			cand := d2.Clone()
			if base != nil {
				cand.AndNot(base)
			}
			fresh := w.enqueue(s, cand)
			if fresh == nil {
				return
			}
			stats.ProductNodes++
			if fresh.Test(0) && !emit(s) {
				failure = errLimit
			}
		})
	})
	return failure
}
