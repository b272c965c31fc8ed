package glushkov

// maxDenseAlphabet bounds the dense predicate table, which costs 8
// bytes per completed predicate id; ids past it are answered by
// Engine.BFor.
const maxDenseAlphabet = 1 << 22

// Stepper is an Engine compiled for the reverse product-graph traversal
// (§4), which reads only B[c] and T' (Eq. 2): a dense predicate→mask
// table with class positions folded in, and the engine's reverse table.
// Up to 16 states the reverse table is one chunk, so a step is one
// load. A Stepper is immutable after Compile and safe for concurrent
// use.
type Stepper struct {
	b    []uint64 // b[c] = Engine.BFor(c)
	eng  *Engine  // answers ids past b
	trev [][]uint64
	d    uint
}

// Compile builds e's Stepper for an alphabet of numPreds completed
// predicate ids. Compile allocates; callers memo the result per
// expression so the steady state is allocation-free.
func Compile(e *Engine, numPreds uint32) Stepper {
	b := make([]uint64, min(numPreds, maxDenseAlphabet))
	for c := range b {
		b[c] = e.BFor(uint32(c))
	}
	return Stepper{b: b, eng: e, trev: e.trev, d: e.d}
}

// PredMask returns B[c]: the positions readable by predicate c, class
// positions included.
//
//ringrpq:noalloc
func (s *Stepper) PredMask(c uint32) uint64 {
	if int(c) < len(s.b) {
		return s.b[c]
	}
	return s.eng.BFor(c)
}

// StepBack returns T'[x]: the states that reach some state of x in one
// step.
//
//ringrpq:noalloc
func (s *Stepper) StepBack(x uint64) uint64 { return stepBack(s.trev, s.d, x) }
