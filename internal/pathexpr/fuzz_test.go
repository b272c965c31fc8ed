package pathexpr

import "testing"

// FuzzParseExpr feeds arbitrary source text to the 2RPQ expression
// parser: it must either fail with an error or produce an AST within
// MaxPositions and MaxDepth whose canonical rendering round-trips
// through the parser to the same canonical form. It must never panic,
// whatever the input. The corpus is seeded with expressions at both
// bounds and one past each.
//
// Run with: go test -run NONE -fuzz FuzzParseExpr ./internal/pathexpr
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		"p",
		"^p",
		"p1/p2",
		"a|b|c",
		"(l1|l2|l5)+",
		"p*",
		"p+?",
		"((a/b)|^c)*",
		"<http://example.org/p>",
		"!p",
		"!(a|^b)",
		"()",
		"()?",
		"^(a/b)",
		"a//b",
		"(((",
		"a|",
		"!",
		"<>",
		"<unterminated",
		"^",
		"  a  /  b  ",
		"\x00\xff",
		"pé",
	} {
		f.Add(seed)
	}
	for _, c := range append(positionCases(), depthCases()...) {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if m, h := CountSyms(n), height(n); m > MaxPositions || h > MaxDepth {
			t.Fatalf("%q accepted with %d positions and height %d", src, m, h)
		}
		canon := String(n)
		n2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, src, err)
		}
		if got := String(n2); got != canon {
			t.Fatalf("canonical form not a fixpoint: %q -> %q -> %q", src, canon, got)
		}
	})
}
