package service

import (
	"errors"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
)

// Cross-query shared traversals (Config.GroupTraversals): when a worker
// picks up a job and more 2RPQ jobs are already queued, evaluating them
// one at a time repeats the same top-of-wavelet-tree descents once per
// query. A grouping worker instead drains up to GroupMax compatible
// jobs and hands them to the backend's EvalGroup in one call, which
// merges their product-graph frontiers into one multi-range descent per
// BFS level (core.TraversalGroup). Grouping changes throughput, not
// results: each member's solutions, limit, timeout and error are its
// own, exactly as if it had run solo.

// GroupRequest is one member of a grouped evaluation: the resolved
// 2RPQ plus its per-member limit, timeout and emit callback.
type GroupRequest struct {
	// Subject and Object are endpoint names; a '?' prefix marks a
	// variable (as in Backend.Eval).
	Subject, Object string
	Expr            pathexpr.Node
	Limit           int
	Timeout         time.Duration
	Emit            func(Solution) bool
}

// GroupBackend is optionally implemented by backends that can evaluate
// several 2RPQs in one shared traversal over a single index snapshot.
// EvalGroup returns one error per request, aligned by index; members
// the backend cannot group must still be evaluated (solo) within the
// call. Like Eval, EvalGroup confines itself to the clone's private
// working state — the pool never calls it concurrently on one clone.
type GroupBackend interface {
	EvalGroup(reqs []GroupRequest) []error
}

// drainBatch opportunistically grabs up to GroupMax-1 more queued jobs
// behind first, without blocking: grouping only ever batches work that
// is already waiting, so an idle service adds no latency.
func (s *Service) drainBatch(first *job) []*job {
	batch := []*job{first}
	for len(batch) < s.cfg.GroupMax {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return batch // closed and drained
			}
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// groupJobState accumulates one grouped job's streaming outcome. dups
// are identical in-flight jobs (same endpoints, canonical expression,
// count mode and limit) coalesced onto this one: the evaluation runs
// once and its Result fans out to every member of the set.
type groupJobState struct {
	j       *job
	dups    []*job
	timeout time.Duration
	sols    []Solution
	n       int
	stopped error
}

// runGrouped evaluates a drained batch: 2RPQ jobs that pass preflight
// are coalesced by identity (identical queued queries share one
// evaluation — the cache-miss thundering herd runs once) and the
// distinct survivors go through one EvalGroup call; pattern jobs run
// solo on the same worker. Every job receives exactly one Result on
// its done channel.
func (s *Service) runGrouped(gb GroupBackend, b Backend, batch []*job) {
	var members []*groupJobState
	seen := make(map[string]*groupJobState, len(batch))
	for _, j := range batch {
		if j.pattern != nil {
			res := s.run(b, j)
			s.finish(j, &res)
			j.done <- res
			continue
		}
		// Preflight mirrors run(): context first, then the deadline
		// anchored at submission (queue wait counts against the budget).
		if err := j.ctx.Err(); err != nil {
			s.countCtxErr(err)
			res := Result{Err: err}
			s.finish(j, &res)
			j.done <- res
			continue
		}
		var timeout time.Duration
		if !j.deadline.IsZero() {
			timeout = time.Until(j.deadline)
			if timeout <= 0 {
				j.wait = time.Since(j.enqueued)
				s.queueWait.Add(j.wait.Nanoseconds())
				s.timeouts.Add(1)
				s.completed.Add(1)
				res := Result{Err: core.ErrTimeout}
				s.finish(j, &res)
				j.done <- res
				continue
			}
		}
		// Streamed jobs keep their own evaluation (their emit callback
		// is their identity), and so do profiled jobs (their trace must
		// describe exactly one evaluation); everything else coalesces
		// via the result cache key, which covers endpoints, canonical
		// expression, count mode and limit. The set evaluates under the
		// most generous member deadline: a shorter-deadline duplicate
		// can only receive its full result sooner than it would alone.
		if j.stream == nil && j.trace == nil {
			key := cacheKey(j.req, j.canon)
			if p, ok := seen[key]; ok {
				p.dups = append(p.dups, j)
				if timeout == 0 || (p.timeout != 0 && timeout > p.timeout) {
					p.timeout = timeout
				}
				continue
			}
			st := &groupJobState{j: j, timeout: timeout}
			seen[key] = st
			members = append(members, st)
			continue
		}
		members = append(members, &groupJobState{j: j, timeout: timeout})
	}
	if len(members) == 0 {
		return
	}
	if len(members) == 1 && len(members[0].dups) == 0 {
		// Nothing to share; keep run()'s exact code path (run stamps
		// the queue wait and eval telemetry itself).
		j := members[0].j
		res := s.run(b, j)
		s.finish(j, &res)
		j.done <- res
		return
	}

	reqs := make([]GroupRequest, len(members))
	jobs := 0
	for i, st := range members {
		st := st
		jobs += 1 + len(st.dups)
		reqs[i] = GroupRequest{
			Subject: st.j.req.Subject,
			Object:  st.j.req.Object,
			Expr:    st.j.node,
			Limit:   st.j.req.Limit,
			Timeout: st.timeout,
			Emit: func(sol Solution) bool {
				st.n++
				if st.j.stream != nil {
					if !st.j.stream(sol) {
						st.stopped = errStopped
						return false
					}
				} else if !st.j.req.Count {
					st.sols = append(st.sols, sol)
				}
				if st.n%1024 == 0 && st.j.ctx.Err() != nil {
					st.stopped = st.j.ctx.Err()
					return false
				}
				return true
			},
		}
	}

	// Evaluation starts now: stamp every member's (and duplicate's)
	// queue wait and open the shared-eval telemetry window.
	for _, st := range members {
		st.j.wait = time.Since(st.j.enqueued)
		s.queueWait.Add(st.j.wait.Nanoseconds())
		st.j.trace.Add(obs.SpanQueueWait, st.j.enqueued)
		st.j.grouped = true
		for _, d := range st.dups {
			d.wait = time.Since(d.enqueued)
			s.queueWait.Add(d.wait.Nanoseconds())
			d.grouped = true
		}
	}

	s.inflight.Add(int64(jobs))
	if len(members) >= 2 {
		s.grouped.Add(int64(jobs))
	} else {
		s.grouped.Add(int64(1 + len(members[0].dups)))
	}
	evalStart := time.Now()
	errs := func() []error {
		// Deferred so a panicking evaluation (recovered in
		// runGroupedSafe) cannot leak the inflight count.
		defer s.inflight.Add(int64(-jobs))
		return gb.EvalGroup(reqs)
	}()
	evalDur := time.Since(evalStart)

	for i, st := range members {
		var err error
		if i < len(errs) {
			err = errs[i]
		}
		res := Result{Solutions: st.sols, N: st.n, Err: err}
		switch {
		case st.stopped == errStopped:
			res.Err = nil
		case st.stopped != nil:
			s.countCtxErr(st.stopped)
			res.Err = st.stopped
		case errors.Is(err, core.ErrTimeout):
			s.timeouts.Add(int64(1 + len(st.dups)))
		case err != nil:
			s.errs.Add(int64(1 + len(st.dups)))
		default:
			s.store(st.j, &res)
		}
		s.completed.Add(int64(1 + len(st.dups)))
		s.deduped.Add(int64(len(st.dups)))
		st.j.evalDur = evalDur
		st.j.trace.Add(obs.SpanEval, evalStart, int64(st.n))
		s.finish(st.j, &res)
		st.j.done <- res
		for _, d := range st.dups {
			// Each duplicate gets its own telemetry finish on a copy
			// (duplicates are never profiled — profiled jobs are not
			// coalesced — so the copy carries no trace).
			dres := res
			dres.Trace = nil
			d.evalDur = evalDur
			s.finish(d, &dres)
			d.done <- dres
		}
	}
}
