package pathexpr

import (
	"errors"
	"fmt"
	"strings"
)

// MaxPositions is the most positions an expression may have: predicate
// occurrences, a negated property set counting as one (the m of §3.3).
// Its Glushkov automaton has m+1 states, which the traversal kernel
// simulates in one 64-bit word.
const MaxPositions = 63

// MaxDepth bounds how deeply an expression nests: the height of its
// tree (a leaf is 1, and each operator adds one level), and how deeply
// its atoms nest in the source (a predicate is 1, and each enclosing
// group, inversion or negation adds one). Parsing and every walk over
// the tree recurse at most that deep, whatever the input's length.
const MaxDepth = 256

// ErrTooLarge reports an expression beyond MaxPositions or MaxDepth.
var ErrTooLarge = errors.New("pathexpr: expression too large")

// Parse parses a 2RPQ regular expression. The grammar, lowest precedence
// first:
//
//	expr   := concat ('|' concat)*
//	concat := unary ('/' unary)*
//	unary  := atom ('*' | '+' | '?')*
//	atom   := '^' atom | ident | '<' ... '>' | '(' expr ')'
//
// Predicates are identifiers (letters, digits, '_', ':', '.', '-', not
// starting with '-') or arbitrary IRIs wrapped in angle brackets. A '^'
// before a parenthesised group inverts the whole group, which is rewritten
// to atomic inverses immediately (§3.1).
//
// An expression with more than MaxPositions positions, or nesting
// deeper than MaxDepth, is rejected with an error wrapping ErrTooLarge;
// the parser stops at the first position or level past the bound.
func Parse(s string) (Node, error) {
	p := &parser{src: s}
	n, _, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("pathexpr: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	return n, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(s string) Node {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	src string
	pos int
	// depth counts the atoms enclosing the one being parsed, syms the
	// positions read so far.
	depth int
	syms  int
}

// tooDeep is the error for nesting past MaxDepth at the current offset.
func (p *parser) tooDeep() error {
	return fmt.Errorf("%w: nested deeper than %d at offset %d", ErrTooLarge, MaxDepth, p.pos)
}

// addSyms counts n more positions, failing once they pass MaxPositions.
func (p *parser) addSyms(n int) error {
	if p.syms += n; p.syms > MaxPositions {
		return fmt.Errorf("%w: more than %d positions at offset %d", ErrTooLarge, MaxPositions, p.pos)
	}
	return nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// The parse functions return each node with its height (see MaxDepth).

func (p *parser) parseAlt() (Node, int, error) {
	left, h, err := p.parseConcat()
	if err != nil {
		return nil, 0, err
	}
	for p.peek() == '|' {
		p.pos++
		right, hr, err := p.parseConcat()
		if err != nil {
			return nil, 0, err
		}
		if h = max(h, hr) + 1; h > MaxDepth {
			return nil, 0, p.tooDeep()
		}
		left = Alt{L: left, R: right}
	}
	return left, h, nil
}

func (p *parser) parseConcat() (Node, int, error) {
	left, h, err := p.parseUnary()
	if err != nil {
		return nil, 0, err
	}
	for p.peek() == '/' {
		p.pos++
		right, hr, err := p.parseUnary()
		if err != nil {
			return nil, 0, err
		}
		if h = max(h, hr) + 1; h > MaxDepth {
			return nil, 0, p.tooDeep()
		}
		left = Concat{L: left, R: right}
	}
	return left, h, nil
}

func (p *parser) parseUnary() (Node, int, error) {
	n, h, err := p.parseAtom()
	if err != nil {
		return nil, 0, err
	}
	for {
		switch p.peek() {
		case '*':
			n = Star{X: n}
		case '+':
			n = Plus{X: n}
		case '?':
			n = Opt{X: n}
		default:
			return n, h, nil
		}
		p.pos++
		if h++; h > MaxDepth {
			return nil, 0, p.tooDeep()
		}
	}
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
}

func (p *parser) parseAtom() (Node, int, error) {
	// Each atom is a level of nesting in the source (see MaxDepth).
	if p.depth == MaxDepth {
		return nil, 0, p.tooDeep()
	}
	p.depth++
	defer func() { p.depth-- }()
	switch c := p.peek(); {
	case c == '!':
		p.pos++
		n, err := p.parseNegSet()
		if err != nil {
			return nil, 0, err
		}
		if _, ok := n.(Alt); ok { // a mixed set splits in two
			return n, 2, p.addSyms(2)
		}
		return n, 1, p.addSyms(1)
	case c == '^':
		p.pos++
		inner, h, err := p.parseAtom()
		if err != nil {
			return nil, 0, err
		}
		return InverseOf(inner), h, nil
	case c == '(':
		p.pos++
		if p.peek() == ')' { // "()" is ε
			p.pos++
			return Eps{}, 1, nil
		}
		inner, h, err := p.parseAlt()
		if err != nil {
			return nil, 0, err
		}
		if p.peek() != ')' {
			return nil, 0, fmt.Errorf("pathexpr: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return inner, h, nil
	case c == '<':
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return nil, 0, fmt.Errorf("pathexpr: unterminated '<' at offset %d", p.pos-1)
		}
		name := p.src[p.pos : p.pos+end]
		p.pos += end + 1
		if name == "" {
			return nil, 0, fmt.Errorf("pathexpr: empty IRI at offset %d", p.pos)
		}
		return Sym{Name: name}, 1, p.addSyms(1)
	case isIdentByte(c) && c != '-':
		start := p.pos
		for p.pos < len(p.src) && isIdentByte(p.src[p.pos]) {
			p.pos++
		}
		return Sym{Name: p.src[start:p.pos]}, 1, p.addSyms(1)
	case c == 0:
		return nil, 0, fmt.Errorf("pathexpr: unexpected end of expression")
	default:
		return nil, 0, fmt.Errorf("pathexpr: unexpected %q at offset %d", c, p.pos)
	}
}

// parseNegSet parses the body of a '!' negated property set: a single
// (possibly inverse) predicate, or a parenthesised alternation of them.
// Mixed-direction sets are split per the SPARQL semantics (see NegSet).
func (p *parser) parseNegSet() (Node, error) {
	var members []Sym
	appendMember := func() error {
		inv := false
		if p.peek() == '^' {
			p.pos++
			inv = true
		}
		syms := p.syms
		atom, _, err := p.parseAtom()
		p.syms = syms // a member is not a position; the set is
		if err != nil {
			return err
		}
		s, ok := atom.(Sym)
		if !ok || s.Inverse && inv {
			return fmt.Errorf("pathexpr: negated property sets may only contain predicates, at offset %d", p.pos)
		}
		members = append(members, Sym{Name: s.Name, Inverse: s.Inverse != inv})
		return nil
	}
	if p.peek() == '(' {
		p.pos++
		for {
			if err := appendMember(); err != nil {
				return nil, err
			}
			switch p.peek() {
			case '|':
				p.pos++
			case ')':
				p.pos++
				return newNegSet(members), nil
			default:
				return nil, fmt.Errorf("pathexpr: expected '|' or ')' in negated set at offset %d", p.pos)
			}
		}
	}
	if err := appendMember(); err != nil {
		return nil, err
	}
	return newNegSet(members), nil
}
