package service

import (
	"reflect"
	"runtime"
	"strings"
	"unicode"

	"ringrpq/internal/obs"
)

// Metrics exposure: every field of the Stats snapshot (including the
// nested standing-query, WAL and latency blocks) is mirrored as a
// Prometheus series under the ringrpq_ prefix by a reflection walk, so
// a counter added to Stats automatically appears on /metrics — and
// `make lint-metrics` (TestMetricsCoverage) fails the build if the
// mapping ever develops a gap. String fields become labels on a
// per-block *_info metric; bools become 0/1 gauges.

// gaugeMetrics lists the snapshot fields that are point-in-time values
// rather than monotonically-increasing counters.
var gaugeMetrics = map[string]bool{
	"workers":                     true,
	"queue_cap":                   true,
	"queue_len":                   true,
	"inflight":                    true,
	"expr_entries":                true,
	"pattern_entries":             true,
	"result_entries":              true,
	"result_bytes":                true,
	"standing_active":             true,
	"standing_detached":           true,
	"standing_version":            true,
	"wal_enabled":                 true,
	"wal_wedged":                  true,
	"wal_segments":                true,
	"wal_size_bytes":              true,
	"wal_last_checkpoint_version": true,
	"wal_last_checkpoint_ms":      true,
}

func isGauge(name string) bool {
	return gaugeMetrics[name] ||
		strings.HasPrefix(name, "latency_") ||
		strings.HasPrefix(name, "eval_latency_")
}

// registerMetrics installs the service's scrape collector: the full
// Stats snapshot plus the two latency histograms and a build-info
// series.
func (s *Service) registerMetrics() {
	s.metrics.Register(func(e *obs.Exposition) {
		e.Info("ringrpq_build_info", "Build facts of the serving binary.",
			map[string]string{
				"go_version": runtime.Version(),
				"goos":       runtime.GOOS,
				"goarch":     runtime.GOARCH,
			})
		exportStruct(e, reflect.ValueOf(s.Stats()), "")
		e.Histogram("ringrpq_request_duration_seconds",
			"End-to-end request latency, enqueue to answer (cache hits excluded).",
			s.latE2E.Snapshot())
		e.Histogram("ringrpq_eval_duration_seconds",
			"Backend evaluation latency (queue wait excluded).",
			s.latEval.Snapshot())
	})
}

// Metrics returns the service's Prometheus registry; it is itself a
// GET /metrics http.Handler.
func (s *Service) Metrics() *obs.Registry { return &s.metrics }

// exportStruct emits one series per leaf field of v. Numeric fields
// become ringrpq_<snake path> counters or gauges, bools become 0/1
// gauges, and string fields are gathered into one constant-1
// ringrpq_<block>_info series labelled with their values.
func exportStruct(e *obs.Exposition, v reflect.Value, prefix string) {
	t := v.Type()
	var labels map[string]string
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		name := prefix + snake(f.Name)
		help := "Mirror of service Stats field " + f.Name + "."
		switch fv.Kind() {
		case reflect.Struct:
			exportStruct(e, fv, name+"_")
		case reflect.String:
			if labels == nil {
				labels = make(map[string]string)
			}
			labels[snake(f.Name)] = fv.String()
		case reflect.Bool:
			var val float64
			if fv.Bool() {
				val = 1
			}
			e.Gauge("ringrpq_"+name, help, val)
		case reflect.Float32, reflect.Float64:
			emitNumber(e, name, help, fv.Float())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			emitNumber(e, name, help, float64(fv.Uint()))
		default:
			emitNumber(e, name, help, float64(fv.Int()))
		}
	}
	if len(labels) > 0 {
		block := "ringrpq_" + strings.TrimSuffix(prefix, "_") + "_info"
		e.Info(block, "String facts of the "+strings.TrimSuffix(prefix, "_")+" block.", labels)
	}
}

func emitNumber(e *obs.Exposition, name, help string, v float64) {
	if isGauge(name) {
		e.Gauge("ringrpq_"+name, help, v)
	} else {
		e.Counter("ringrpq_"+name, help, v)
	}
}

// snake converts a Go field name to snake_case, keeping acronym runs
// together: QueueWaitNS → queue_wait_ns, P50MS → p50_ms, WAL → wal.
func snake(name string) string {
	rs := []rune(name)
	var b strings.Builder
	for i, r := range rs {
		if unicode.IsUpper(r) {
			boundary := i > 0 && (!unicode.IsUpper(rs[i-1]) ||
				(i+1 < len(rs) && unicode.IsLower(rs[i+1])))
			if boundary {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}
