package obs

import (
	"log/slog"
	"sync"
	"time"
)

// SlowEntry is one slow-query record: what ran, where the time went,
// and how it ended.
type SlowEntry struct {
	Time      time.Time     `json:"time"`
	Kind      string        `json:"kind"` // query | count | select | batch member
	Subject   string        `json:"subject,omitempty"`
	Object    string        `json:"object,omitempty"`
	Expr      string        `json:"expr,omitempty"`
	Pattern   string        `json:"pattern,omitempty"`
	Total     time.Duration `json:"total_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Eval      time.Duration `json:"eval_ns"`
	Results   int           `json:"results"`
	Truncated bool          `json:"truncated,omitempty"`
	TimedOut  bool          `json:"timed_out,omitempty"`
	Err       string        `json:"error,omitempty"`
}

// SlowLog keeps the most recent slow queries in a bounded ring and
// mirrors each one to a structured slog logger. A nil *SlowLog, or one
// with a non-positive threshold, records nothing.
type SlowLog struct {
	threshold time.Duration
	logger    *slog.Logger

	mu    sync.Mutex
	ring  []SlowEntry
	next  int
	total uint64
}

// NewSlowLog builds a slow-query log. threshold <= 0 disables it
// (returns nil); capacity <= 0 defaults to 128; logger may be nil to
// keep entries in memory only.
func NewSlowLog(threshold time.Duration, capacity int, logger *slog.Logger) *SlowLog {
	if threshold <= 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{
		threshold: threshold,
		logger:    logger,
		ring:      make([]SlowEntry, 0, capacity),
	}
}

// Threshold returns the gating duration (0 when disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Record stores the entry if it crosses the threshold. Safe on nil.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil || e.Total < l.threshold {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.ring)
	l.total++
	l.mu.Unlock()

	if l.logger != nil {
		attrs := []any{
			slog.String("kind", e.Kind),
			slog.Duration("total", e.Total),
			slog.Duration("queue_wait", e.QueueWait),
			slog.Duration("eval", e.Eval),
			slog.Int("results", e.Results),
		}
		if e.Expr != "" {
			attrs = append(attrs, slog.String("expr", e.Expr),
				slog.String("subject", e.Subject), slog.String("object", e.Object))
		}
		if e.Pattern != "" {
			attrs = append(attrs, slog.String("pattern", e.Pattern))
		}
		if e.Truncated {
			attrs = append(attrs, slog.Bool("truncated", true))
		}
		if e.TimedOut {
			attrs = append(attrs, slog.Bool("timed_out", true))
		}
		if e.Err != "" {
			attrs = append(attrs, slog.String("error", e.Err))
		}
		l.logger.Warn("slow query", attrs...)
	}
}

// Entries returns the retained entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		// Still filling: entries are in append order, newest last.
		for i := len(l.ring) - 1; i >= 0; i-- {
			out = append(out, l.ring[i])
		}
		return out
	}
	for i := 1; i <= len(l.ring); i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Total reports how many entries crossed the threshold over the log's
// lifetime (including ones evicted from the ring).
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
