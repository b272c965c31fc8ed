// Package query implements the graph-pattern subsystem the paper's
// conclusion (§6) sketches: multi-clause basic graph patterns mixed with
// regular path queries, evaluated over the ring with the worst-case-
// optimal Leapfrog Triejoin (internal/ltj) for the BGP core and the
// ring's RPQ engine (internal/core) for path clauses.
//
// A pattern is a SPARQL-ish conjunction of clauses:
//
//	?x <advisor>/<advisor>* ?y . ?y country Q30
//
// Each clause is "subject path object". Subjects and objects are
// variables (?name) or node constants (bare tokens or <IRI>). The middle
// is a variable predicate (?p), a plain predicate (p or ^p) — making the
// clause a triple pattern joined by LTJ — or any richer path expression
// (internal/pathexpr syntax), making it an RPQ clause evaluated on the
// product graph with bindings flowing into its endpoints. Clauses are
// separated by standalone "." tokens. An optional projection wraps the
// clause list:
//
//	SELECT ?x ?y WHERE { ?x advisor+ ?y . ?y country Q30 }
//
// The planner (plan.go) orders variables and clauses by selectivity
// estimates it counts on the ring (distinct subjects per predicate);
// the executor (exec.go) pipelines LTJ rows through bound-endpoint RPQ
// evaluation.
package query

import (
	"fmt"
	"strings"

	"ringrpq/internal/pathexpr"
)

// Term is a clause endpoint: a variable or a node constant.
type Term struct {
	// Var is the variable name (without '?'); empty means constant.
	Var string
	// Name is the constant node name when Var is empty.
	Name string
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// Clause is one conjunct of a graph pattern, in exactly one of three
// forms: a variable-predicate triple pattern (PredVar set), a
// constant-predicate triple pattern (Path is a plain pathexpr.Sym), or
// an RPQ clause (any other Path).
type Clause struct {
	S, O Term
	// PredVar names a variable predicate; empty for the other forms.
	PredVar string
	// Path is the parsed path expression (nil when PredVar is set).
	Path pathexpr.Node
}

// TripleSym returns the constant predicate when the clause is a
// constant-predicate triple pattern.
func (c Clause) TripleSym() (pathexpr.Sym, bool) {
	if c.PredVar != "" || c.Path == nil {
		return pathexpr.Sym{}, false
	}
	s, ok := c.Path.(pathexpr.Sym)
	return s, ok
}

// IsTriple reports whether the clause is a triple pattern (variable or
// constant predicate) rather than an RPQ clause.
func (c Clause) IsTriple() bool {
	if c.PredVar != "" {
		return true
	}
	_, ok := c.TripleSym()
	return ok
}

// Query is a parsed graph pattern.
type Query struct {
	// Select lists the projected variable names (without '?'); nil
	// means all variables.
	Select []string
	// Clauses are the pattern's conjuncts.
	Clauses []Clause

	// canon is the canonical text, rendered once by Parse: a parsed
	// query is never modified, and the plan memo keys every run on it.
	canon string
}

// Parse parses a graph-pattern query. See the package comment for the
// grammar; tokens are whitespace-separated and ".", "{", "}" must stand
// alone.
func Parse(src string) (*Query, error) {
	toks := strings.Fields(src)
	if len(toks) == 0 {
		return nil, fmt.Errorf("query: empty pattern")
	}
	q := &Query{}
	i := 0
	braced := false
	if strings.EqualFold(toks[i], "select") {
		i++
		for i < len(toks) && strings.HasPrefix(toks[i], "?") {
			t, err := parseTerm(toks[i])
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, t.Var)
			i++
		}
		if len(q.Select) == 0 {
			return nil, fmt.Errorf("query: SELECT needs at least one ?variable")
		}
		if i >= len(toks) || !strings.EqualFold(toks[i], "where") {
			return nil, fmt.Errorf("query: expected WHERE after the SELECT variables")
		}
		i++
		if i >= len(toks) || toks[i] != "{" {
			return nil, fmt.Errorf("query: expected '{' after WHERE")
		}
		i++
		braced = true
	}

	var clause []string
	flush := func() error {
		if len(clause) == 0 {
			return nil
		}
		c, err := parseClause(clause)
		if err != nil {
			return err
		}
		q.Clauses = append(q.Clauses, c)
		clause = clause[:0]
		return nil
	}
	for ; i < len(toks); i++ {
		switch toks[i] {
		case ".":
			if len(clause) == 0 {
				return nil, fmt.Errorf("query: empty clause before '.'")
			}
			if err := flush(); err != nil {
				return nil, err
			}
		case "{":
			return nil, fmt.Errorf("query: unexpected '{'")
		case "}":
			if !braced {
				return nil, fmt.Errorf("query: unexpected '}'")
			}
			if err := flush(); err != nil {
				return nil, err
			}
			if i != len(toks)-1 {
				return nil, fmt.Errorf("query: trailing tokens after '}'")
			}
			braced = false
		default:
			clause = append(clause, toks[i])
		}
	}
	if braced {
		return nil, fmt.Errorf("query: missing '}'")
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(q.Clauses) == 0 {
		return nil, fmt.Errorf("query: pattern has no clauses")
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	q.canon = q.render()
	return q, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// parseClause parses one "subject path object" token group.
func parseClause(toks []string) (Clause, error) {
	if len(toks) < 3 {
		return Clause{}, fmt.Errorf("query: clause %q needs subject, path and object", strings.Join(toks, " "))
	}
	s, err := parseTerm(toks[0])
	if err != nil {
		return Clause{}, err
	}
	o, err := parseTerm(toks[len(toks)-1])
	if err != nil {
		return Clause{}, err
	}
	c := Clause{S: s, O: o}
	mid := toks[1 : len(toks)-1]
	if len(mid) == 1 && strings.HasPrefix(mid[0], "?") {
		p, err := parseTerm(mid[0])
		if err != nil {
			return Clause{}, err
		}
		c.PredVar = p.Var
		return c, nil
	}
	node, err := pathexpr.Parse(strings.Join(mid, " "))
	if err != nil {
		return Clause{}, fmt.Errorf("query: clause %q: %w", strings.Join(toks, " "), err)
	}
	c.Path = node
	return c, nil
}

// parseTerm parses one endpoint or predicate-variable token.
func parseTerm(tok string) (Term, error) {
	switch {
	case strings.HasPrefix(tok, "?"):
		name := tok[1:]
		if name == "" {
			return Term{}, fmt.Errorf("query: bare '?' is not a variable")
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
				return Term{}, fmt.Errorf("query: variable %q may use only letters, digits and '_'", tok)
			}
		}
		return Term{Var: name}, nil
	case strings.HasPrefix(tok, "<"):
		if len(tok) < 3 || !strings.HasSuffix(tok, ">") {
			return Term{}, fmt.Errorf("query: malformed IRI token %q", tok)
		}
		name := tok[1 : len(tok)-1]
		if strings.ContainsAny(name, "<>") {
			return Term{}, fmt.Errorf("query: malformed IRI token %q", tok)
		}
		return Term{Name: name}, nil
	case strings.ContainsAny(tok, "<>"):
		return Term{}, fmt.Errorf("query: constant %q must be wrapped in angle brackets", tok)
	default:
		return Term{Name: tok}, nil
	}
}

// validate rejects patterns whose variables mix namespaces: a variable
// may bind nodes (endpoint positions) or predicates (predicate
// position), never both, because the two id spaces are disjoint.
func (q *Query) validate() error {
	kind := map[string]string{}
	note := func(name, k string) error {
		if name == "" {
			return nil
		}
		if prev, ok := kind[name]; ok && prev != k {
			return fmt.Errorf("query: variable ?%s is used both as a %s and as a %s", name, prev, k)
		}
		kind[name] = k
		return nil
	}
	for _, c := range q.Clauses {
		if err := note(c.S.Var, "node"); err != nil {
			return err
		}
		if err := note(c.O.Var, "node"); err != nil {
			return err
		}
		if err := note(c.PredVar, "predicate"); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, v := range q.Select {
		if _, ok := kind[v]; !ok {
			return fmt.Errorf("query: SELECT variable ?%s does not occur in the pattern", v)
		}
		if seen[v] {
			return fmt.Errorf("query: SELECT variable ?%s listed twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Vars returns all variables in order of first appearance (subject,
// predicate, object per clause).
func (q *Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, c := range q.Clauses {
		add(c.S.Var)
		add(c.PredVar)
		add(c.O.Var)
	}
	return out
}

// OutVars returns the projected variables: the SELECT list when
// present, all variables in appearance order otherwise.
func (q *Query) OutVars() []string {
	if q.Select != nil {
		return q.Select
	}
	return q.Vars()
}

// PredVars returns the set of variables bound in predicate position.
func (q *Query) PredVars() map[string]bool {
	out := map[string]bool{}
	for _, c := range q.Clauses {
		if c.PredVar != "" {
			out[c.PredVar] = true
		}
	}
	return out
}

// String returns the query in the canonical syntax accepted by Parse
// (path expressions in pathexpr.String form), the form the service's
// pattern cache and the executor's plan memo key on. Parse renders it
// once, so a Query must come from Parse.
func (q *Query) String() string { return q.canon }

// render builds the canonical text.
func (q *Query) render() string {
	var sb strings.Builder
	if q.Select != nil {
		sb.WriteString("SELECT")
		for _, v := range q.Select {
			sb.WriteString(" ?")
			sb.WriteString(v)
		}
		sb.WriteString(" WHERE { ")
	}
	for i, c := range q.Clauses {
		if i > 0 {
			sb.WriteString(" . ")
		}
		sb.WriteString(termString(c.S))
		sb.WriteByte(' ')
		if c.PredVar != "" {
			sb.WriteByte('?')
			sb.WriteString(c.PredVar)
		} else {
			mid := pathexpr.String(c.Path)
			// A predicate literally named "." would render as the
			// clause-separator token; brackets keep it reparseable.
			if mid == "." {
				mid = "<.>"
			}
			sb.WriteString(mid)
		}
		sb.WriteByte(' ')
		sb.WriteString(termString(c.O))
	}
	if q.Select != nil {
		sb.WriteString(" }")
	}
	return sb.String()
}

// termString renders a term so it reparses: bare when safe, bracketed
// otherwise.
func termString(t Term) string {
	if t.IsVar() {
		return "?" + t.Var
	}
	if bareSafe(t.Name) {
		return t.Name
	}
	return "<" + t.Name + ">"
}

// bareSafe reports whether a constant name can be printed without
// brackets and reparsed as the same single token.
func bareSafe(name string) bool {
	switch name {
	case "", ".", "{", "}":
		return false
	}
	if name[0] == '?' || name[0] == '<' {
		return false
	}
	if strings.ContainsAny(name, "<> \t\n\r") {
		return false
	}
	// SELECT/WHERE at clause starts could be swallowed by the wrapper
	// grammar only in first position; brackets keep them unambiguous.
	if strings.EqualFold(name, "select") || strings.EqualFold(name, "where") {
		return false
	}
	return true
}
