package standing

// Registry worker panic isolation: a panicking evaluation terminates
// only the subscription being processed (with the eviction reported via
// OnEvict for the durability layer), counts in Stats.Panics, and leaves
// the worker serving everyone else.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ringrpq/internal/pathexpr"
)

// panicHost is a minimal Host whose evaluations panic while armed.
type panicHost struct {
	arm atomic.Bool
}

func (h *panicHost) Acquire() (Snapshot, uint64)      { return struct{}{}, 0 }
func (h *panicHost) Release(Snapshot)                 {}
func (h *panicHost) NumNodes(Snapshot) int            { return 4 }
func (h *panicHost) NodeName(id uint32) string        { return fmt.Sprintf("n%d", id) }
func (h *panicHost) LookupNode(string) (uint32, bool) { return 0, true }
func (h *panicHost) SymbolIDs() SymbolIDs {
	return func(pathexpr.Sym) (uint32, bool) { return 1, true }
}
func (h *panicHost) PredSym(uint32) PredicateSym { return PredicateSym{Name: "p"} }

func (h *panicHost) EvalRPQ(_ Snapshot, _ RPQ, _ EvalOptions, _ func(subj, obj uint32) bool) error {
	if h.arm.Load() {
		panic("injected standing evaluation panic")
	}
	return nil
}

func (h *panicHost) EvalPattern(_ Snapshot, _ *PatternQuery, _ time.Duration, _ func(row []string) bool) error {
	return nil
}

func TestRegistryPanicTerminatesOnlyThatSub(t *testing.T) {
	host := &panicHost{}
	// The batch's edge is in the subscription's alphabet, so its
	// closure probe calls EvalRPQ — the injection point.
	r := New(host, Config{})
	defer r.Close()
	var evicted atomic.Uint64
	r.OnEvict = func(id uint64) { evicted.Store(id) }

	sub, err := r.Subscribe(Request{Expr: "p"})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	host.arm.Store(true)
	snap, _ := host.Acquire()
	r.Notify(Batch{Version: 1, Adds: []Edge{{S: 0, P: 1, O: 2}}, Old: snap, New: snap})
	r.Sync()

	if _, _, err := sub.TryNext(); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("subscription err = %v, want panic termination", err)
	}
	if st := r.Stats(); st.Panics != 1 || st.Active != 0 {
		t.Fatalf("stats = %+v, want Panics 1 and no active subs", st)
	}
	if got := evicted.Load(); got != sub.ID() {
		t.Fatalf("OnEvict got id %d, want %d", got, sub.ID())
	}

	// The worker survived: a fresh subscription activates and serves.
	host.arm.Store(false)
	sub2, err := r.Subscribe(Request{Expr: "p"})
	if err != nil {
		t.Fatalf("subscribe after panic: %v", err)
	}
	r.Notify(Batch{Version: 2, Adds: []Edge{{S: 1, P: 1, O: 2}}, Old: snap, New: snap})
	r.Sync()
	if _, _, err := sub2.TryNext(); err != nil {
		t.Fatalf("second subscription err = %v", err)
	}
}

func TestRegistryActivationPanicFailsSubscribe(t *testing.T) {
	host := &panicHost{}
	r := New(host, Config{})
	defer r.Close()

	host.arm.Store(true)
	if _, err := r.Subscribe(Request{Expr: "p"}); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("subscribe during panic = %v, want activation failure", err)
	}
	if st := r.Stats(); st.Panics == 0 {
		t.Fatalf("stats = %+v, want a recorded panic", st)
	}

	host.arm.Store(false)
	if _, err := r.Subscribe(Request{Expr: "p"}); err != nil {
		t.Fatalf("subscribe after activation panic: %v", err)
	}
}
