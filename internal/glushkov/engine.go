package glushkov

import "fmt"

// MaxEngineStates is the largest automaton (m+1 states) the uint64 Engine
// supports; use Wide beyond it.
const MaxEngineStates = 64

// fullTableBits is the threshold below which a single full transition
// table (2^(m+1) entries) is used instead of split subtables, as in the
// paper's implementation (§5 uses 16-bit cells).
const fullTableBits = 16

// Engine is the bit-parallel simulator of an Automaton with at most 64
// states. State sets are uint64 masks with bit 0 = the initial state and
// bit j = position j. It is immutable after construction and safe for
// concurrent use.
type Engine struct {
	A *Automaton

	// B maps each symbol to the mask of positions it labels (the paper's
	// B[c] table, sparse because queries mention few predicates).
	B map[uint32]uint64
	// F is the mask of final states (last positions, plus the initial
	// state when the language is nullable).
	F uint64
	// Init is the mask holding only the initial state.
	Init uint64

	nbits int // m+1
	d     int // subtable width in bits

	// Symbol-class (negated property set) support: numCompleted is the
	// completed alphabet size (0 when the automaton has no classes);
	// negFwd/negInv mark class positions per direction, and negExcl[c]
	// marks the class positions whose exclusion list contains c.
	numCompleted uint32
	negFwd       uint64
	negInv       uint64
	negExcl      map[uint32]uint64

	// followMask[i] = mask of Follow[i].
	followMask []uint64

	// tfwd[k][x] = union of followMask[i] over states i whose bit lies in
	// chunk k and is set in x; T[X] = OR_k tfwd[k][chunk_k(X)] (Eq. 1).
	tfwd [][]uint64
	// trev[k][x] = mask of states i with followMask[i] ∩ chunk_k-bits(x)
	// nonempty; T'[X] = OR_k trev[k][chunk_k(X)] (Eq. 2).
	trev [][]uint64
}

// NewEngine builds an Engine with the default table decomposition: one
// full table when m+1 ≤ 16, 8-bit subtables otherwise. Automata with
// symbol classes need NewEngineFor, which knows the alphabet size.
func NewEngine(a *Automaton) (*Engine, error) {
	return NewEngineFor(a, 0)
}

// NewEngineFor is NewEngine for an alphabet of numCompleted completed
// predicate ids, enabling symbol classes (negated property sets).
func NewEngineFor(a *Automaton, numCompleted uint32) (*Engine, error) {
	d := 8
	if a.M+1 <= fullTableBits {
		d = a.M + 1
	}
	return NewEngineSplitFor(a, d, numCompleted)
}

// NewEngineSplitFor is NewEngineFor with transition tables split into
// d-bit subtables (1 ≤ d ≤ 16); space O((m/d)·2^d) words, step time
// O(m/d). numCompleted may be 0 when the automaton has no symbol
// classes. Exposed for the table-width ablation benchmark.
func NewEngineSplitFor(a *Automaton, d int, numCompleted uint32) (*Engine, error) {
	if a.M+1 > MaxEngineStates {
		return nil, fmt.Errorf("glushkov: %d states exceed the %d-state engine; use Wide", a.M+1, MaxEngineStates)
	}
	if d < 1 || d > 16 {
		return nil, fmt.Errorf("glushkov: invalid subtable width %d", d)
	}
	if a.HasClasses() && numCompleted == 0 {
		return nil, fmt.Errorf("glushkov: automaton has symbol classes; use NewEngineFor with the alphabet size")
	}
	e := &Engine{A: a, Init: 1, nbits: a.M + 1, d: d, numCompleted: numCompleted}
	e.negExcl = map[uint32]uint64{}
	for j, cl := range a.Classes {
		if cl == nil {
			continue
		}
		bit := uint64(1) << uint(j+1)
		if cl.Inverse {
			e.negInv |= bit
		} else {
			e.negFwd |= bit
		}
		for _, c := range cl.Excl {
			e.negExcl[c] |= bit
		}
	}

	e.followMask = make([]uint64, a.M+1)
	for i, fs := range a.Follow {
		var m uint64
		for _, j := range fs {
			m |= 1 << uint(j)
		}
		e.followMask[i] = m
	}

	e.B = make(map[uint32]uint64, a.M)
	for j, c := range a.Syms {
		if c != NoSymbol {
			e.B[c] |= 1 << uint(j+1)
		}
	}

	for _, j := range a.Last {
		e.F |= 1 << uint(j)
	}
	if a.Nullable {
		e.F |= e.Init
	}

	nchunks := (e.nbits + d - 1) / d
	e.tfwd = make([][]uint64, nchunks)
	e.trev = make([][]uint64, nchunks)
	for k := 0; k < nchunks; k++ {
		size := 1 << uint(d)
		fwd := make([]uint64, size)
		rev := make([]uint64, size)
		base := k * d
		// Build by dynamic programming on set bits: t[x] = t[x without
		// lowest bit] | t[lowest bit only].
		for i := 0; i < d && base+i < e.nbits; i++ {
			fwd[1<<uint(i)] = e.followMask[base+i]
			var r uint64
			probe := uint64(1) << uint(base+i)
			for s := 0; s <= a.M; s++ {
				if e.followMask[s]&probe != 0 {
					r |= 1 << uint(s)
				}
			}
			rev[1<<uint(i)] = r
		}
		for x := 1; x < size; x++ {
			low := x & -x
			if x != low {
				fwd[x] = fwd[x^low] | fwd[low]
				rev[x] = rev[x^low] | rev[low]
			}
		}
		e.tfwd[k] = fwd
		e.trev[k] = rev
	}
	return e, nil
}

// chunkMask extracts chunk k of X as a subtable index.
func (e *Engine) chunk(x uint64, k int) int {
	return int(x >> uint(k*e.d) & (1<<uint(e.d) - 1))
}

// T applies the forward reachability table: the states reachable in one
// step from any state in X, by any symbol.
func (e *Engine) T(x uint64) uint64 {
	var r uint64
	for k := range e.tfwd {
		r |= e.tfwd[k][e.chunk(x, k)]
	}
	return r
}

// Trev applies the reverse table: the states that reach some state of X
// in one step.
func (e *Engine) Trev(x uint64) uint64 {
	var r uint64
	for k := range e.trev {
		r |= e.trev[k][e.chunk(x, k)]
	}
	return r
}

// BFor returns B[c]: the positions readable by symbol c, including
// class positions whose class contains c (zero when the automaton never
// reads c).
func (e *Engine) BFor(c uint32) uint64 {
	b := e.B[c]
	if e.negFwd|e.negInv != 0 && c < e.numCompleted {
		if c < e.numCompleted/2 {
			b |= e.negFwd &^ e.negExcl[c]
		} else {
			b |= e.negInv &^ e.negExcl[c]
		}
	}
	return b
}

// NegClassBits returns the class-position masks per direction (forward,
// inverse); callers that maintain per-range filters (the §4.1 wavelet
// descent) use these as the conservative contribution of classes.
func (e *Engine) NegClassBits() (fwd, inv uint64) { return e.negFwd, e.negInv }

// StepFwd advances the active-state set D by reading symbol c
// (Eq. 1: D ← T[D] & B[c]).
func (e *Engine) StepFwd(d uint64, c uint32) uint64 {
	return e.T(d) & e.BFor(c)
}

// StepRev retreats D by symbol c for right-to-left scanning
// (Eq. 2: D ← T'[D & B[c]]).
func (e *Engine) StepRev(d uint64, c uint32) uint64 {
	return e.Trev(d & e.BFor(c))
}

// AcceptsFwd reports whether a forward simulation currently accepts.
func (e *Engine) AcceptsFwd(d uint64) bool { return d&e.F != 0 }

// AcceptsRev reports whether a reverse simulation has reached the initial
// state, i.e. the whole word read (backwards) is in the language.
func (e *Engine) AcceptsRev(d uint64) bool { return d&e.Init != 0 }

// MatchFwd simulates the word left to right and reports acceptance.
func (e *Engine) MatchFwd(word []uint32) bool {
	d := e.Init
	for _, c := range word {
		d = e.StepFwd(d, c)
		if d == 0 {
			return false
		}
	}
	return e.AcceptsFwd(d)
}

// MatchRev simulates the word right to left and reports acceptance;
// equivalent to MatchFwd by construction.
func (e *Engine) MatchRev(word []uint32) bool {
	d := e.F
	for i := len(word) - 1; i >= 0; i-- {
		d = e.StepRev(d, word[i])
		if d == 0 {
			return false
		}
	}
	return e.AcceptsRev(d)
}

// SizeBytes reports the table memory of the engine (the working-space
// term O(2^m + |P|) of §4).
func (e *Engine) SizeBytes() int {
	sz := 8*len(e.followMask) + 16*len(e.B) + 64
	for k := range e.tfwd {
		sz += 8 * (len(e.tfwd[k]) + len(e.trev[k]))
	}
	return sz
}
