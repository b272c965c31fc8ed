// Package ctxfirstdata exercises the ctxfirst analyzer.
package ctxfirstdata

import "context"

// Evaluator is a seam interface whose Eval lacks a leading context.
type Evaluator interface {
	Eval(q int, emit func(uint32, uint32) bool) error // want "must take context.Context as its first parameter"
}

// Backend is a seam interface: Eval takes ctx first, ApplyUpdates does
// not, and EvalPattern is a suppressed violation — the directive names
// the analyzer and gives a reason, so nothing is reported for it.
type Backend interface {
	Eval(ctx context.Context, q int) error
	ApplyUpdates(adds []int) error // want "interface method Backend.ApplyUpdates must take context.Context as its first parameter"
	//lint:ignore ctxfirst frozen wire-compat shim; new code uses Eval
	EvalPattern(q int) error
}

// NotASeam shares a method name but not a seam name: ignored.
type NotASeam interface {
	Eval(q int) error
}

// GoodImpl implements Backend with ctx first everywhere it takes one.
type GoodImpl struct{}

func (GoodImpl) Eval(ctx context.Context, q int) error { return nil }

func (GoodImpl) ApplyUpdates(adds []int) error { return nil }

func (GoodImpl) EvalPattern(q int) error { return nil }

// BadImpl implements Backend but misplaces ctx on another exported
// method.
type BadImpl struct{}

func (BadImpl) Eval(ctx context.Context, q int) error { return nil }

func (BadImpl) ApplyUpdates(adds []int) error { return nil }

func (BadImpl) EvalPattern(q int) error { return nil }

func (BadImpl) Describe(name string, ctx context.Context) {} // want "must come first"

// unexported helpers with trailing ctx on non-implementations are not
// the analyzer's business.
type plain struct{}

func (plain) run(name string, ctx context.Context) { _ = ctx }

// DB is a public read surface: its Query takes no context.
type DB struct{}

func (*DB) Query(subject, expr, object string) error { return nil } // want "DB.Query evaluates or updates and must take context.Context as its first parameter"

func (*DB) Count(ctx context.Context, subject string) (int, error) { return 0, nil }

// Stats neither evaluates nor updates: ignored.
func (*DB) Stats() int { return 0 }

// Service updates: Apply takes ctx first, Update does not.
type Service struct{}

func (Service) Apply(ctx context.Context, adds []int) error { return nil }

func (Service) Update(adds []int) error { return nil } // want "Service.Update evaluates or updates"

// Engine is neither DB nor Service: its Query is not the public seam.
type Engine struct{}

func (Engine) Query(q int) error { return nil }
