package glushkov

// Stepper is the compiled hot-path interface for the reverse
// product-graph traversal (§4): PredMask(c) returns B[c] with class
// positions folded in (Engine.BFor), StepBack(x) applies the reverse
// transition T'[x] (Engine.Trev, Eq. 2). An Engine is itself a Stepper
// (the interpreter); Compile specializes an automaton into a
// branch-lighter form — a dense predicate→mask table plus either a flat
// single-lookup reverse table or an unrolled shift for recognizable
// shapes (single predicate, alternation of predicates, k-step
// concatenation), generalizing the §5 fast paths.
//
// Steppers are immutable after Compile and safe for concurrent use.
type Stepper interface {
	// PredMask returns the positions readable by predicate c (B[c],
	// classes folded in).
	PredMask(c uint32) uint64
	// StepBack returns the states reaching some state of x in one step
	// (T'[x]).
	StepBack(x uint64) uint64
	// Kind names the specialization for reports ("interp", "table",
	// "table-chunked", "single", "chain", "alt").
	Kind() string
}

// PredMask implements Stepper on the interpreter (alias of BFor).
//
//ringrpq:noalloc
func (e *Engine) PredMask(c uint32) uint64 { return e.BFor(c) }

// StepBack implements Stepper on the interpreter (alias of Trev).
//
//ringrpq:noalloc
func (e *Engine) StepBack(x uint64) uint64 { return e.Trev(x) }

// Kind implements Stepper on the interpreter.
func (e *Engine) Kind() string { return "interp" }

// maxDenseAlphabet bounds the dense predicate table; alphabets beyond
// it fall back to the interpreter's sparse map (never hit in practice:
// the table costs 8 bytes per completed predicate id).
const maxDenseAlphabet = 1 << 22

// predTable is the dense predicate→position-mask table shared by all
// compiled steppers: one bounds check and one load per leaf instead of
// a map probe plus the class fold.
type predTable []uint64

//ringrpq:noalloc
func (b predTable) PredMask(c uint32) uint64 {
	if int(c) < len(b) {
		return b[c]
	}
	return 0
}

// tableStepper is the general ≤64-state form with a single-chunk
// reverse table: StepBack is one load.
type tableStepper struct {
	predTable
	trev []uint64
	mask uint64
}

//ringrpq:noalloc
func (t *tableStepper) StepBack(x uint64) uint64 { return t.trev[x&t.mask] }
func (t *tableStepper) Kind() string             { return "table" }

// chunkedStepper is the general form when the reverse table is split
// into d-bit subtables (m+1 > fullTableBits).
type chunkedStepper struct {
	predTable
	trev [][]uint64
	d    uint
}

//ringrpq:noalloc
func (t *chunkedStepper) StepBack(x uint64) uint64 {
	var r uint64
	mask := uint64(1)<<t.d - 1
	for k := range t.trev {
		r |= t.trev[k][x>>(uint(k)*t.d)&mask]
	}
	return r
}
func (t *chunkedStepper) Kind() string { return "table-chunked" }

// chainStepper handles pure concatenations of predicates (a/b/c …):
// position i follows exactly position i+1, so T'[x] is a shift. m == 1
// is the single-predicate case.
type chainStepper struct {
	predTable
	mask uint64 // (1<<m)-1: states 0..m-1, the only ones with successors
	m    int
}

//ringrpq:noalloc
func (c *chainStepper) StepBack(x uint64) uint64 { return x >> 1 & c.mask }
func (c *chainStepper) Kind() string {
	if c.m == 1 {
		return "single"
	}
	return "chain"
}

// altStepper handles alternations of predicates (a|b|c …): every
// position is first and final, so T'[x] is the initial state iff x
// holds any position.
type altStepper struct {
	predTable
}

//ringrpq:noalloc
func (a *altStepper) StepBack(x uint64) uint64 {
	if x&^1 != 0 {
		return 1
	}
	return 0
}
func (a *altStepper) Kind() string { return "alt" }

// Compile specializes e into a Stepper for an alphabet of numPreds
// completed predicate ids. The result folds class positions into the
// dense predicate table and picks the cheapest StepBack form the
// automaton's follow structure admits. Compile allocates; callers memo
// the result per expression so the steady state is allocation-free.
func Compile(e *Engine, numPreds uint32) Stepper {
	size := numPreds
	for c := range e.B {
		if c >= size {
			size = c + 1
		}
	}
	if size > maxDenseAlphabet {
		return e
	}
	b := make(predTable, size)
	for c := range b {
		b[c] = e.BFor(uint32(c))
	}

	m := e.A.M
	if e.negFwd|e.negInv == 0 && m >= 1 {
		chain := e.followMask[m] == 0
		for i := 0; chain && i < m; i++ {
			chain = e.followMask[i] == 1<<uint(i+1)
		}
		if chain {
			return &chainStepper{predTable: b, mask: 1<<uint(m) - 1, m: m}
		}
		if m >= 2 {
			allPos := (uint64(1)<<uint(m+1) - 1) &^ 1
			alt := e.followMask[0] == allPos
			for i := 1; alt && i <= m; i++ {
				alt = e.followMask[i] == 0
			}
			if alt {
				return &altStepper{predTable: b}
			}
		}
	}

	if len(e.trev) == 1 {
		return &tableStepper{predTable: b, trev: e.trev[0], mask: 1<<uint(e.d) - 1}
	}
	return &chunkedStepper{predTable: b, trev: e.trev, d: uint(e.d)}
}
