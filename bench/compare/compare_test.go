package compare

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringrpq/bench/load"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   Verdict
	}{
		{"same", steady, steady, "lower", 0.10, OK},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 107}, "lower", 0.10, OK},
		{"slower beyond bound", steady, []float64{115, 116, 114, 115, 117}, "lower", 0.10, Regressed},
		{"faster", steady, []float64{50, 51, 49, 50, 52}, "lower", 0.10, OK},
		{"throughput dropped", steady, []float64{80, 81, 79, 80, 82}, "higher", 0.10, Regressed},
		{"throughput rose", steady, []float64{130, 131, 129, 130, 132}, "higher", 0.10, OK},
		{"noisy parent", []float64{60, 140, 100, 75, 125}, []float64{115, 116, 114, 115, 117}, "lower", 0.10, Unresolved},
		{"noisy change", steady, []float64{80, 160, 120, 95, 145}, "lower", 0.10, Unresolved},
	} {
		if got, _ := Judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, worse := Judge([]float64{100}, []float64{110}, "lower", 0.1); worse < 0.0999 || worse > 0.1001 {
		t.Errorf("worse = %v, want 0.1", worse)
	}
	if _, worse := Judge([]float64{100}, []float64{110}, "higher", 0.1); worse > -0.0999 {
		t.Errorf("worse = %v, want -0.1", worse)
	}
}

// Files must not let a change through that got faster by failing: rows
// of runs that failed their checks are left out and count against the
// change, as do a larger share of failed ops and a metric the change no
// longer reports.
func TestFilesCountFailuresAgainstTheChange(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...load.Row) string {
		path := filepath.Join(dir, name)
		for _, r := range rows {
			if err := r.Append(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	row := func(ms float64, correct bool, failed int, metrics ...string) load.Row {
		r := load.Row{Workload: "w", Correct: correct, Attempted: 100, Failed: failed, Metrics: map[string]load.Metric{}}
		for _, m := range metrics {
			r.Metrics[m] = load.Metric{Value: ms, Unit: "ms"}
		}
		return r
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}, {"name": "cpu", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", row(10, true, 0, "lat", "cpu"), row(10, true, 0, "lat", "cpu"))
	for _, c := range []struct {
		name      string
		b         string
		regressed bool
		says      string
	}{
		{"same", write("same.jsonl", row(10, true, 0, "lat", "cpu"), row(10, true, 0, "lat", "cpu")), false, ""},
		// The incorrect row's 1 ms must not pull the median down to ok.
		{"incorrect", write("bad.jsonl", row(10, true, 0, "lat", "cpu"), row(1, false, 0, "lat", "cpu")), true, "failed their checks"},
		{"failed ops", write("failed.jsonl", row(10, true, 3, "lat", "cpu"), row(10, true, 0, "lat", "cpu")), true, "failed ops"},
		{"missing", write("missing.jsonl", row(10, true, 0, "lat"), row(10, true, 0, "lat")), true, "missing from B"},
	} {
		var out strings.Builder
		regressed, err := Files(&out, bench, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: regressed %v, want %v and %q in\n%s", c.name, regressed, c.regressed, c.says, out.String())
		}
	}
}
