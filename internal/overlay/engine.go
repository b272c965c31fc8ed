package overlay

import (
	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/ring"
)

// Engine is a core.Engine with an Overlay attached by SetSnapshot.
// Everything but the benchmark module under bench/ attaches an Overlay
// to a core.Engine with SetDelta; Engine stays only for that module's
// probe, and it goes with that call (ROADMAP item 17).
type Engine struct{ *core.Engine }

// NewEngine builds core.NewEngine(rings[0], ids). The first and last
// arguments are ignored, and rings must hold exactly one ring.
func NewEngine(_ core.Evaluator, rings []*ring.Ring, ids glushkov.SymbolIDs, _ uint32) *Engine {
	if len(rings) != 1 {
		panic("overlay: NewEngine takes exactly one ring")
	}
	return &Engine{core.NewEngine(rings[0], ids)}
}

// SetSnapshot attaches ov, when not nil, with its snapshot's node space.
func (e *Engine) SetSnapshot(ov *Overlay, numNodes int) {
	if ov != nil {
		e.SetDelta(ov, numNodes)
	}
}
