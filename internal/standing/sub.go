package standing

import (
	"context"
	"time"

	"ringrpq/internal/query"

	"sync"

	"ringrpq/internal/pathexpr"
)

// Sub is one standing-query subscription. Deltas are consumed with
// Next (blocking) or TryNext; a Sub expects a single consumer at a
// time (an SSE connection, a poll loop), though registration-side
// methods (Close, Detach, the registry's Resume) are safe from any
// goroutine.
type Sub struct {
	id  uint64
	reg *Registry

	// req is the original request, kept for durable re-registration
	// (SnapshotSubs / SubscribeRecovered).
	req Request

	// Compiled query — immutable after compile().
	isPattern bool
	pat       *query.Query
	vars      []string
	// expr is the path expression in evaluation orientation: constant-
	// subject subscriptions are normalised to constant-object ones over
	// the inverse expression (swap set), so the materialised view is
	// always keyed by the evaluation object ("columns").
	expr     pathexpr.Node
	swap     bool
	subjName string // eval-orientation constant subject ("" = variable)
	objName  string // eval-orientation constant object ("" = variable)
	nullable bool
	// universal marks an unbounded alphabet (negated symbol classes or
	// variable predicates): every batch is relevant and maintenance
	// falls back to re-evaluation.
	universal bool
	alphabet  map[uint32]bool
	// closure is (c1|c2|...)* over the alphabet, the probe expression
	// for affected-column discovery; nil when universal or empty.
	closure      pathexpr.Node
	wantSnapshot bool
	depth        int

	// startVer is the data version the initial result was materialised
	// against. The worker writes it once in activate() before resolving
	// the activation channel, so it is immutable by the time Subscribe
	// returns and safe to read from consumer goroutines.
	startVer uint64

	// Maintenance state, owned by the registry worker.
	ready    bool // activation processed; batch notices may apply
	since    uint64
	numNodes int
	cols     map[uint32]map[uint32]bool // eval object → set of eval subjects
	rows     map[string][]string        // row key → projected row
	objID    uint32
	objOK    bool
	subjID   uint32
	subjOK   bool

	// Delivery state.
	mu         sync.Mutex
	pending    []Delta
	history    []Delta
	histFloor  uint64 // versions > histFloor are fully replayable
	lagged     bool
	detached   bool
	detachedAt time.Time
	err        error // terminal; nil while live
	wake       chan struct{}

	activated chan struct{}
	actOnce   sync.Once
	actErr    error
}

// ID identifies the subscription for Resume and Unsubscribe.
func (s *Sub) ID() uint64 { return s.id }

// StartVersion is the data version the initial result was materialised
// against; deltas describe changes after it.
func (s *Sub) StartVersion() uint64 { return s.startVer }

// Vars lists a pattern subscription's projected variable names (the
// column order of Delta.AddedRows/RemovedRows); nil for 2RPQs.
func (s *Sub) Vars() []string { return s.vars }

// Next blocks for the next delta. It returns ErrLagged once the
// pending queue has overflowed and drained (resume from the last seen
// version to catch up from history), a terminal error after Close /
// Unsubscribe / registry shutdown / an evaluation failure, or the
// context's error.
func (s *Sub) Next(ctx context.Context) (Delta, error) {
	for {
		d, ok, err := s.TryNext()
		if ok || err != nil {
			return d, err
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return Delta{}, ctx.Err()
		}
	}
}

// TryNext is the non-blocking Next: ok reports whether a delta was
// ready. err is as in Next; (zero, false, nil) means "nothing yet".
func (s *Sub) TryNext() (Delta, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) > 0 {
		d := s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending[len(s.pending)-1] = Delta{}
		s.pending = s.pending[:len(s.pending)-1]
		return d, true, nil
	}
	if s.err != nil {
		return Delta{}, false, s.err
	}
	if s.lagged {
		return Delta{}, false, ErrLagged
	}
	return Delta{}, false, nil
}

// Close unregisters the subscription and terminates it: queued deltas
// still drain, then Next returns ErrClosed. Idempotent.
func (s *Sub) Close() {
	s.reg.remove(s.id)
	s.terminate(ErrClosed)
}

// Detach marks the consumer as disconnected while keeping the
// subscription resumable: deltas keep accumulating in the history (and
// pending queue) until a Resume reattaches or the registry's detach
// TTL (2 minutes) expires. SSE/long-poll handlers call it when the
// connection drops.
func (s *Sub) Detach() {
	s.mu.Lock()
	if s.err == nil {
		s.detached = true
		s.detachedAt = time.Now()
	}
	s.mu.Unlock()
}

// resume reattaches at version from (see Registry.Resume); cur bounds
// the future check — the registry's processed version or the host's
// current data version, whichever is newer.
func (s *Sub) resume(from, cur uint64) error {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return s.err
	}
	if from > cur {
		s.mu.Unlock()
		return ErrFutureVersion
	}
	if from < s.histFloor {
		s.mu.Unlock()
		return ErrTooOld
	}
	s.detached = false
	s.lagged = false
	s.pending = s.pending[:0]
	for _, d := range s.history {
		if d.Version > from {
			s.pending = append(s.pending, d)
		}
	}
	s.mu.Unlock()
	s.signal()
	return nil
}

// push appends a delta to the history and, queue permitting, the
// pending queue; a full queue marks the subscriber lagged instead of
// blocking the worker. Once lagged, every later delta is dropped too
// until a resume clears the flag: letting newer deltas re-enter the
// queue past a dropped one would hand the consumer a stream with a
// silent gap it could never detect (the dropped deltas stay resumable
// from history). initial deltas (the Snapshot baseline) are not
// recorded in history — they precede StartVersion's cut, and a resume
// replays changes, not the baseline.
func (s *Sub) push(r *Registry, d Delta, initial bool) {
	r.deltas.Add(1)
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	if !initial {
		s.history = append(s.history, d)
		if len(s.history) > r.cfg.History {
			s.histFloor = s.history[0].Version
			copy(s.history, s.history[1:])
			s.history[len(s.history)-1] = Delta{}
			s.history = s.history[:len(s.history)-1]
		}
	}
	if s.lagged || len(s.pending) >= s.depth {
		s.lagged = true
		r.overflows.Add(1)
	} else {
		s.pending = append(s.pending, d)
	}
	s.mu.Unlock()
	s.signal()
}

// terminate sets the terminal error (first writer wins) and wakes the
// consumer.
func (s *Sub) terminate(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.signal()
	s.finishActivation(err)
}

func (s *Sub) isTerminated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

func (s *Sub) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// finishActivation resolves the Subscribe call waiting on activation.
func (s *Sub) finishActivation(err error) {
	s.actOnce.Do(func() {
		s.actErr = err
		close(s.activated)
	})
}
