package overlay

import (
	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/ring"
)

// Engine is a core.Engine over rings with an Overlay attached. It is
// kept for the benchmark probe; everything else attaches an Overlay to
// a core.Engine with SetDelta, and the kernel decides per query
// whether the overlay matters.
type Engine struct{ *core.Engine }

// NewEngine builds the kernel over rings. The first argument is
// ignored; it keeps the signature the benchmark probe calls.
func NewEngine(_ core.Evaluator, rings []*ring.Ring, ids glushkov.SymbolIDs, numPreds uint32) *Engine {
	return &Engine{core.NewMultiRing(rings, ids, numPreds)}
}

// SetSnapshot attaches ov, when not nil, with its snapshot's node space.
func (e *Engine) SetSnapshot(ov *Overlay, numNodes int) {
	if ov != nil {
		e.SetDelta(ov, numNodes)
	}
}
