package glushkov

import (
	"fmt"
	"math/bits"
)

// MaxEngineStates is the largest automaton (m+1 states) the uint64 Engine
// supports; use Wide beyond it.
const MaxEngineStates = 64

// fullTableBits is the threshold below which a single full reverse
// table (2^(m+1) entries) is used instead of split subtables, as in the
// paper's implementation (§5 uses 16-bit cells).
const fullTableBits = 16

// Engine is the bit-parallel simulator of an Automaton with at most 64
// states, run right to left as the RPQ traversal reads paths (§4).
// State sets are uint64 masks with bit 0 = the initial state and bit
// j = position j. It is immutable after construction and safe for
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

	d uint // subtable width in bits

	// Symbol-class (negated property set) support: numCompleted is the
	// completed alphabet size (0 when the automaton has no classes);
	// negFwd/negInv mark class positions per direction, and negExcl[c]
	// marks the class positions whose exclusion list contains c.
	numCompleted uint32
	negFwd       uint64
	negInv       uint64
	negExcl      map[uint32]uint64

	// trev[k][x] = mask of states i whose follow set meets the states
	// of chunk k set in x; T'[X] = OR_k trev[k][chunk_k(X)] (Eq. 2).
	trev [][]uint64
}

// NewEngineFor builds an Engine for an alphabet of numCompleted
// completed predicate ids (0 when the automaton has no symbol classes)
// with the default table decomposition: one full table when m+1 ≤ 16,
// 8-bit subtables otherwise.
func NewEngineFor(a *Automaton, numCompleted uint32) (*Engine, error) {
	d := 8
	if a.M+1 <= fullTableBits {
		d = a.M + 1
	}
	return NewEngineSplitFor(a, d, numCompleted)
}

// NewEngineSplitFor is NewEngineFor with the reverse table split into
// d-bit subtables (1 ≤ d ≤ 16); space O((m/d)·2^d) words, step time
// O(m/d). Exposed for the table-width ablation benchmark.
func NewEngineSplitFor(a *Automaton, d int, numCompleted uint32) (*Engine, error) {
	if a.M+1 > MaxEngineStates {
		return nil, fmt.Errorf("glushkov: %d states exceed the %d-state engine; use Wide", a.M+1, MaxEngineStates)
	}
	if d < 1 || d > 16 {
		return nil, fmt.Errorf("glushkov: invalid subtable width %d", d)
	}
	if a.HasClasses() && numCompleted == 0 {
		return nil, fmt.Errorf("glushkov: automaton has symbol classes; pass the alphabet size")
	}
	e := &Engine{A: a, Init: 1, d: uint(d), numCompleted: numCompleted}
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

	// pred[j] = the states j may follow: T'[{j}].
	nbits := a.M + 1
	pred := make([]uint64, nbits)
	for i, fs := range a.Follow {
		for _, j := range fs {
			pred[j] |= 1 << uint(i)
		}
	}
	for base := 0; base < nbits; base += d {
		// rev[x] = rev[x without its lowest bit] | pred[that bit].
		rev := make([]uint64, 1<<uint(d))
		for x := 1; x < len(rev); x++ {
			rev[x] = rev[x&(x-1)]
			if i := base + bits.TrailingZeros(uint(x)); i < nbits {
				rev[x] |= pred[i]
			}
		}
		e.trev = append(e.trev, rev)
	}
	return e, nil
}

// stepBack applies the reverse table trev, split into d-bit subtables,
// to X.
func stepBack(trev [][]uint64, d uint, x uint64) uint64 {
	var r uint64
	mask := uint64(1)<<d - 1
	for _, t := range trev {
		r |= t[x&mask]
		x >>= d
	}
	return r
}

// Trev applies the reverse table: the states that reach some state of X
// in one step.
func (e *Engine) Trev(x uint64) uint64 { return stepBack(e.trev, e.d, x) }

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

// StepRev retreats D by symbol c for right-to-left scanning
// (Eq. 2: D ← T'[D & B[c]]).
func (e *Engine) StepRev(d uint64, c uint32) uint64 {
	return e.Trev(d & e.BFor(c))
}

// AcceptsRev reports whether a reverse simulation has reached the initial
// state, i.e. the whole word read (backwards) is in the language.
func (e *Engine) AcceptsRev(d uint64) bool { return d&e.Init != 0 }

// MatchRev simulates the word right to left, from the final states, and
// reports acceptance.
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
	sz := 16*len(e.B) + 64
	for _, t := range e.trev {
		sz += 8 * len(t)
	}
	return sz
}
