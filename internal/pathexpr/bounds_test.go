package pathexpr

import (
	"errors"
	"strings"
	"testing"
)

// height is the height of n's tree: a leaf is 1, each operator one
// level more (the tree half of MaxDepth).
func height(n Node) int {
	switch x := n.(type) {
	case Concat:
		return 1 + max(height(x.L), height(x.R))
	case Alt:
		return 1 + max(height(x.L), height(x.R))
	case Star:
		return 1 + height(x.X)
	case Plus:
		return 1 + height(x.X)
	case Opt:
		return 1 + height(x.X)
	default:
		return 1
	}
}

// chain joins n copies of atom with sep.
func chain(atom, sep string, n int) string {
	return strings.TrimSuffix(strings.Repeat(atom+sep, n), sep)
}

// nested wraps atom in n copies of open and close.
func nested(open, atom, close string, n int) string {
	return strings.Repeat(open, n) + atom + strings.Repeat(close, n)
}

// boundCase is an expression at a bound, or one past it.
type boundCase struct {
	name string
	src  string
	ok   bool
}

// checkBound parses c.src: an accepted expression must stay within both
// bounds and round-trip through String, a rejected one must fail with
// ErrTooLarge.
func checkBound(t *testing.T, c boundCase) {
	t.Helper()
	n, err := Parse(c.src)
	if !c.ok {
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: Parse err = %v, want ErrTooLarge", c.name, err)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: Parse: %v", c.name, err)
		return
	}
	if m, h := CountSyms(n), height(n); m > MaxPositions || h > MaxDepth {
		t.Errorf("%s: accepted with %d positions and height %d", c.name, m, h)
	}
	canon := String(n)
	if n2, err := Parse(canon); err != nil || String(n2) != canon {
		t.Errorf("%s: canonical form does not round-trip: %v", c.name, err)
	}
}

// positionCases are expressions of MaxPositions positions and one more:
// a negated set is one position however many names it lists, a mixed
// set splits into two, and an inverted group keeps its count.
func positionCases() []boundCase {
	set := "!(" + chain("n", "|", 100) + ")"
	return []boundCase{
		{"syms", chain("a", "/", MaxPositions), true},
		{"syms+1", chain("a", "/", MaxPositions+1), false},
		{"alt", "(" + chain("a", "|", MaxPositions) + ")*", true},
		{"alt+1", "(" + chain("a", "|", MaxPositions+1) + ")*", false},
		{"negsets", chain(set, "/", MaxPositions), true},
		{"negsets+1", chain(set, "/", MaxPositions+1), false},
		{"mixed", chain("a", "/", MaxPositions-2) + "/!(b|^c)", true},
		{"mixed+1", chain("a", "/", MaxPositions-1) + "/!(b|^c)", false},
		{"inverse", "^(" + chain("a", "/", MaxPositions) + ")", true},
		{"inverse+1", "^(" + chain("a", "/", MaxPositions+1) + ")", false},
	}
}

// depthCases are the four shapes that nest, at MaxDepth and one past
// it: groups and inversions nest atoms in the source, postfix operators
// and operands of '/' each add a level to the tree ("()/()/…" has no
// positions at all). The predicate at the bottom is the first level.
func depthCases() []boundCase {
	return []boundCase{
		{"parens", nested("(", "a", ")", MaxDepth-1), true},
		{"parens+1", nested("(", "a", ")", MaxDepth), false},
		{"inversions", nested("^", "a", "", MaxDepth-1), true},
		{"inversions+1", nested("^", "a", "", MaxDepth), false},
		{"postfix", "a" + strings.Repeat("*", MaxDepth-1), true},
		{"postfix+1", "a" + strings.Repeat("*", MaxDepth), false},
		{"eps chain", chain("()", "/", MaxDepth), true},
		{"eps chain+1", chain("()", "/", MaxDepth+1), false},
	}
}

func TestParsePositionBound(t *testing.T) {
	for _, c := range positionCases() {
		checkBound(t, c)
	}
}

func TestParseDepthBound(t *testing.T) {
	for _, c := range depthCases() {
		checkBound(t, c)
	}
}

// A body the service accepts (under 8 MiB) must not be able to exhaust
// the parser's stack: 3·2^20 nested groups, or as many inversions, are
// rejected at the bound instead of recursed into, and a postfix run is
// rejected before the tree that String would recurse over is built.
func TestParseHugeNesting(t *testing.T) {
	const n = 3 << 20
	for name, src := range map[string]string{
		"parens":     nested("(", "a", ")", n),
		"inversions": nested("^", "a", "", n),
		"postfix":    "a" + strings.Repeat("*", 1<<20),
	} {
		if _, err := Parse(src); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: Parse err = %v, want ErrTooLarge", name, err)
		}
	}
}
