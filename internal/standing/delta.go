package standing

import (
	"errors"
	"sort"
	"strconv"
	"strings"

	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
)

// The Host evaluation surface speaks the engine's own types; the
// aliases keep the package's public face self-contained.
type (
	// RPQ is a dictionary-encoded 2RPQ (core.Variable marks unbound
	// endpoints).
	RPQ = core.Query
	// PatternQuery is a parsed graph pattern.
	PatternQuery = query.Query
	// SymbolIDs resolves expression symbols to completed predicate ids.
	SymbolIDs = glushkov.SymbolIDs
	// EvalOptions tunes one evaluation the Host runs for the registry.
	EvalOptions = core.Options
	// PredicateSym names one completed predicate id as an expression
	// symbol (Inverse set for the completed inverse half).
	PredicateSym = pathexpr.Sym
)

// compile parses and normalises one request into a Sub (no snapshot
// needed; the initial result is materialised later by the worker).
func (r *Registry) compile(req Request) (*Sub, error) {
	s := &Sub{
		reg:          r,
		req:          req,
		wantSnapshot: req.Snapshot,
		depth:        req.QueueDepth,
		wake:         make(chan struct{}, 1),
		activated:    make(chan struct{}),
		alphabet:     map[uint32]bool{},
	}
	if s.depth <= 0 {
		s.depth = r.cfg.QueueDepth
	}
	switch {
	case req.Pattern != "" && req.Expr != "":
		return nil, errors.New("standing: request has both an expression and a pattern")
	case req.Pattern != "":
		q, err := query.Parse(req.Pattern)
		if err != nil {
			return nil, err
		}
		s.isPattern = true
		s.pat = q
		s.vars = q.OutVars()
		for _, cl := range q.Clauses {
			if cl.PredVar != "" {
				// A variable predicate ranges over the whole alphabet.
				s.universal = true
				continue
			}
			a := glushkov.Build(cl.Path, r.host.SymbolIDs())
			if a.HasClasses() {
				s.universal = true
			}
			if a.Nullable {
				s.nullable = true
			}
			for _, c := range a.Alphabet() {
				s.alphabet[c] = true
			}
		}
		return s, nil
	case req.Expr == "":
		return nil, errors.New("standing: request needs an expression or a pattern")
	}
	node, err := pathexpr.Parse(req.Expr)
	if err != nil {
		return nil, err
	}
	subject, object := req.Subject, req.Object
	if subject == "" {
		subject = "?s"
	}
	if object == "" {
		object = "?o"
	}
	subjVar := strings.HasPrefix(subject, "?")
	objVar := strings.HasPrefix(object, "?")
	switch {
	case subjVar && objVar:
		s.expr = node
	case !subjVar && objVar:
		// Normalise to a constant evaluation object over the inverse
		// expression: x ∈ E(S) ⟺ S ∈ Ê(x).
		s.expr = pathexpr.InverseOf(node)
		s.swap = true
		s.objName = subject
	case subjVar && !objVar:
		s.expr = node
		s.objName = object
	default:
		s.expr = node
		s.subjName = subject
		s.objName = object
	}
	a := glushkov.Build(s.expr, r.host.SymbolIDs())
	s.nullable = a.Nullable
	s.universal = a.HasClasses()
	for _, c := range a.Alphabet() {
		s.alphabet[c] = true
	}
	if !s.universal && len(s.alphabet) > 0 {
		s.closure = closureExpr(a.Alphabet(), r.host.PredSym)
	}
	return s, nil
}

// closureExpr builds (c1|c2|...)* over the alphabet: the probe
// expression whose solutions from a seed are exactly the nodes an
// E-path may continue through after crossing the seed's edge.
func closureExpr(alphabet []uint32, sym func(uint32) PredicateSym) pathexpr.Node {
	var n pathexpr.Node
	for _, c := range alphabet {
		t := sym(c)
		if n == nil {
			n = t
		} else {
			n = pathexpr.Alt{L: n, R: t}
		}
	}
	return pathexpr.Star{X: n}
}

// materialize computes the subscription's initial result view against
// the activation snapshot.
func (r *Registry) materialize(s *Sub, snap Snapshot) error {
	s.numNodes = r.host.NumNodes(snap)
	if s.isPattern {
		rows, err := r.evalRows(snap, s)
		if err != nil {
			return err
		}
		s.rows = rows
		return nil
	}
	s.resolveConsts(r, s.numNodes)
	cols, err := r.evalAll(snap, s)
	if err != nil {
		return err
	}
	s.cols = cols
	return nil
}

// resolveConsts resolves constant endpoint names against the node
// dictionary, accepting only ids below the snapshot's dictionary
// length (the shared dictionary may already hold nodes from later
// batches). Reports whether anything newly resolved.
func (s *Sub) resolveConsts(r *Registry, limit int) bool {
	changed := false
	if s.objName != "" && !s.objOK {
		if id, ok := r.host.LookupNode(s.objName); ok && int(id) < limit {
			s.objID, s.objOK = id, true
			changed = true
		}
	}
	if s.subjName != "" && !s.subjOK {
		if id, ok := r.host.LookupNode(s.subjName); ok && int(id) < limit {
			s.subjID, s.subjOK = id, true
			changed = true
		}
	}
	return changed
}

// evalAll evaluates the subscription's whole query on snap, returning
// the result keyed by evaluation object ("columns").
func (r *Registry) evalAll(snap Snapshot, s *Sub) (map[uint32]map[uint32]bool, error) {
	out := map[uint32]map[uint32]bool{}
	q := RPQ{Subject: core.Variable, Object: core.Variable, Expr: s.expr}
	if s.objName != "" {
		if !s.objOK {
			return out, nil // unresolved constant: empty by definition
		}
		q.Object = int64(s.objID)
	}
	if s.subjName != "" {
		if !s.subjOK {
			return out, nil
		}
		q.Subject = int64(s.subjID)
	}
	err := r.host.EvalRPQ(snap, q, EvalOptions{Timeout: r.cfg.EvalTimeout}, func(x, y uint32) bool {
		col := out[y]
		if col == nil {
			col = map[uint32]bool{}
			out[y] = col
		}
		col[x] = true
		return true
	})
	return out, err
}

// evalColumn re-derives one column: (?x, E, y).
func (r *Registry) evalColumn(snap Snapshot, s *Sub, y uint32) (map[uint32]bool, error) {
	q := RPQ{Subject: core.Variable, Object: int64(y), Expr: s.expr}
	var col map[uint32]bool
	err := r.host.EvalRPQ(snap, q, EvalOptions{Timeout: r.cfg.EvalTimeout}, func(x, _ uint32) bool {
		if col == nil {
			col = map[uint32]bool{}
		}
		col[x] = true
		return true
	})
	return col, err
}

// pair maps a stored (eval subject, eval object) entry back to the
// subscription's original orientation.
func (s *Sub) pair(r *Registry, x, y uint32) Pair {
	if s.swap {
		return Pair{Subject: r.host.NodeName(y), Object: r.host.NodeName(x)}
	}
	return Pair{Subject: r.host.NodeName(x), Object: r.host.NodeName(y)}
}

// rpqDelta computes one 2RPQ subscription's delta for one batch.
func (r *Registry) rpqDelta(s *Sub, b *Batch, d *Delta) error {
	newNum := r.host.NumNodes(b.New)
	resolved := s.resolveConsts(r, newNum)
	touched := len(b.Adds) > 0 || len(b.Dels) > 0
	relevant := s.universal && touched
	if !s.universal && touched {
		relevant = anyAlphabet(s.alphabet, b.Adds) || anyAlphabet(s.alphabet, b.Dels)
	}
	growth := s.nullable && newNum > s.numNodes
	if !relevant && !resolved && !(growth && s.objName == "") {
		// Growth matters to constant-endpoint subscriptions only
		// through name resolution, which `resolved` covers.
		r.skipped.Add(1)
		s.numNodes = newNum
		return nil
	}
	if s.universal {
		r.fullReevals.Add(1)
		err := r.fullRPQDelta(s, b.New, d)
		s.numNodes = newNum
		return err
	}
	if s.objName != "" {
		// Constant-column subscription: one column (or one boolean pair
		// for both-constant endpoints). Re-deriving the column costs one
		// constant-object evaluation — about the same backward-cone
		// traversal a reachability probe would pay — so an alphabet-
		// relevant batch goes straight to the recompute and diff.
		ready := s.objOK && (s.subjName == "" || s.subjOK)
		if !ready {
			s.numNodes = newNum
			return nil
		}
		r.incremental.Add(1)
		newCols, err := r.evalAll(b.New, s)
		if err != nil {
			return err
		}
		r.diffCols(s, newCols, d)
		s.cols = newCols
		s.numNodes = newNum
		return nil
	}
	// Variable-variable: discover the affected columns by closure
	// probes from the batch edges, then re-derive only those.
	cols, overflow, err := r.affectedColumns(s, b)
	if err != nil {
		return err
	}
	if overflow {
		r.fullReevals.Add(1)
		err := r.fullRPQDelta(s, b.New, d)
		s.numNodes = newNum
		return err
	}
	r.incremental.Add(1)
	if growth {
		// A nullable expression relates every node to itself via the
		// empty path: newly interned nodes gain (v, v) regardless of
		// any edge.
		for v := s.numNodes; v < newNum; v++ {
			id := uint32(v)
			col := s.cols[id]
			if col == nil {
				col = map[uint32]bool{}
				s.cols[id] = col
			}
			if !col[id] {
				col[id] = true
				d.Added = append(d.Added, s.pair(r, id, id))
			}
		}
	}
	for _, y := range cols {
		newCol, err := r.evalColumn(b.New, s, y)
		if err != nil {
			return err
		}
		old := s.cols[y]
		for x := range newCol {
			if !old[x] {
				d.Added = append(d.Added, s.pair(r, x, y))
			}
		}
		for x := range old {
			if !newCol[x] {
				d.Removed = append(d.Removed, s.pair(r, x, y))
			}
		}
		if len(newCol) == 0 {
			delete(s.cols, y)
		} else {
			s.cols[y] = newCol
		}
	}
	s.numNodes = newNum
	return nil
}

// anyAlphabet reports whether any edge carries an alphabet predicate.
func anyAlphabet(alphabet map[uint32]bool, edges []Edge) bool {
	for _, e := range edges {
		if alphabet[e.P] {
			return true
		}
	}
	return false
}

// fullRPQDelta re-evaluates the whole query and diffs against the view.
func (r *Registry) fullRPQDelta(s *Sub, snap Snapshot, d *Delta) error {
	newCols, err := r.evalAll(snap, s)
	if err != nil {
		return err
	}
	r.diffCols(s, newCols, d)
	s.cols = newCols
	return nil
}

// diffCols emits the symmetric difference between the stored view and
// newCols into d.
func (r *Registry) diffCols(s *Sub, newCols map[uint32]map[uint32]bool, d *Delta) {
	for y, newCol := range newCols {
		old := s.cols[y]
		for x := range newCol {
			if !old[x] {
				d.Added = append(d.Added, s.pair(r, x, y))
			}
		}
	}
	for y, old := range s.cols {
		newCol := newCols[y]
		for x := range old {
			if !newCol[x] {
				d.Removed = append(d.Removed, s.pair(r, x, y))
			}
		}
	}
}

// affectedColumns computes the set of evaluation objects whose columns
// a batch may have changed: the forward closure — over the expression's
// own alphabet — of added-edge targets in the new graph, united with
// that of tombstoned-edge targets in the old graph. Any created pair
// (x, y) has a new path crossing an added edge, so y is alphabet-
// reachable from that edge's target in the new graph; any retracted
// pair's old paths all crossed a tombstoned edge, so its y is
// alphabet-reachable from that edge's target in the old graph.
// overflow reports the maxColumns cap was hit.
func (r *Registry) affectedColumns(s *Sub, b *Batch) (cols []uint32, overflow bool, err error) {
	if s.closure == nil {
		return nil, false, nil
	}
	seenAll := map[uint32]bool{}
	collect := func(snap Snapshot, edges []Edge) (bool, error) {
		// Side-local subsumption: a seed already reached by an earlier
		// probe on this side has its whole closure covered.
		side := map[uint32]bool{}
		for _, e := range edges {
			if !s.alphabet[e.P] || side[e.O] {
				continue
			}
			over := false
			q := RPQ{Subject: int64(e.O), Object: core.Variable, Expr: s.closure}
			if err := r.host.EvalRPQ(snap, q, EvalOptions{Timeout: r.cfg.EvalTimeout}, func(_, y uint32) bool {
				side[y] = true
				if !seenAll[y] {
					seenAll[y] = true
					cols = append(cols, y)
				}
				if len(cols) > maxColumns {
					over = true
					return false
				}
				return true
			}); err != nil {
				return false, err
			}
			if over {
				return true, nil
			}
		}
		return false, nil
	}
	if overflow, err = collect(b.New, b.Adds); overflow || err != nil {
		return nil, overflow, err
	}
	overflow, err = collect(b.Old, b.Dels)
	if overflow || err != nil {
		return nil, overflow, err
	}
	return cols, false, nil
}

// evalRows evaluates a pattern subscription's full result table.
func (r *Registry) evalRows(snap Snapshot, s *Sub) (map[string][]string, error) {
	rows := map[string][]string{}
	err := r.host.EvalPattern(snap, s.pat, r.cfg.EvalTimeout, func(row []string) bool {
		cp := make([]string, len(row))
		copy(cp, row)
		rows[rowKey(cp)] = cp
		return true
	})
	return rows, err
}

// patternDelta maintains a pattern subscription: alphabet-gated full
// re-evaluation plus row diff (pattern joins have no per-column
// decomposition to exploit).
func (r *Registry) patternDelta(s *Sub, b *Batch, d *Delta) error {
	newNum := r.host.NumNodes(b.New)
	touched := len(b.Adds) > 0 || len(b.Dels) > 0
	// A nullable clause relates nodes to themselves, so dictionary
	// growth alone can mint rows; constant terms resolving for the
	// first time also ride on growth.
	growthSensitive := newNum > s.numNodes
	relevant := touched
	if !s.universal && touched {
		relevant = anyAlphabet(s.alphabet, b.Adds) || anyAlphabet(s.alphabet, b.Dels)
	}
	if !relevant && !growthSensitive {
		r.skipped.Add(1)
		return nil
	}
	r.fullReevals.Add(1)
	newRows, err := r.evalRows(b.New, s)
	if err != nil {
		return err
	}
	for k, row := range newRows {
		if _, ok := s.rows[k]; !ok {
			d.AddedRows = append(d.AddedRows, row)
		}
	}
	for k, row := range s.rows {
		if _, ok := newRows[k]; !ok {
			d.RemovedRows = append(d.RemovedRows, row)
		}
	}
	s.rows = newRows
	s.numNodes = newNum
	return nil
}

// currentAsDelta renders the materialised view as one delta (the
// Snapshot-option baseline).
func (s *Sub) currentAsDelta(r *Registry, version uint64) Delta {
	d := Delta{Version: version}
	if s.isPattern {
		for _, row := range s.rows {
			d.AddedRows = append(d.AddedRows, row)
		}
	} else {
		for y, col := range s.cols {
			for x := range col {
				d.Added = append(d.Added, s.pair(r, x, y))
			}
		}
	}
	sortDelta(&d)
	return d
}

// rowKey encodes a projected row unambiguously.
func rowKey(row []string) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(strconv.Itoa(len(v)))
		sb.WriteByte(':')
		sb.WriteString(v)
	}
	return sb.String()
}

// sortDelta orders a delta's additions and retractions for stable
// delivery (and deterministic tests).
func sortDelta(d *Delta) {
	sortPairs(d.Added)
	sortPairs(d.Removed)
	sortRows(d.AddedRows)
	sortRows(d.RemovedRows)
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Subject != ps[j].Subject {
			return ps[i].Subject < ps[j].Subject
		}
		return ps[i].Object < ps[j].Object
	})
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
