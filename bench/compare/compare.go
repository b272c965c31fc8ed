// Package compare holds two sets of benchmark rows against the bounds
// in BENCHMARK.json: for every workload and end-to-end metric it prints
// both medians with their quartiles, the ratio with its base, and
// whether the second set is ok, regressed, or unresolved because the
// runs of a set disagree among themselves by more than the bound.
package compare

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"ringrpq/bench/load"
	"ringrpq/bench/stat"
)

// Verdict is the judgement on one workload × metric.
type Verdict string

const (
	OK         Verdict = "ok"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// gate is one end_to_end entry of BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Judge compares a metric's values in the base set a and the candidate
// set b. worse is the share of a's median by which b's median is worse
// (negative when it is better). A set whose own interquartile spread
// exceeds the bound cannot resolve a change of the bound's size, so the
// verdict is then unresolved whatever the medians say.
func Judge(a, b []float64, better string, bound float64) (v Verdict, worse float64) {
	ma, mb := stat.Median(a), stat.Median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case stat.Spread(a) > bound || stat.Spread(b) > bound:
		return Unresolved, worse
	case worse > bound:
		return Regressed, worse
	}
	return OK, worse
}

// readRows loads the untraced rows of a JSON-lines file by workload,
// keeping the order workloads first appear in. A row whose run failed
// its checks (--out keeps those too) is counted in incorrect and left
// out: its timings are of work that was not done.
func readRows(path string) (rows map[string][]load.Row, incorrect map[string]int, order []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	rows, incorrect = map[string][]load.Row{}, map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r load.Row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if _, seen := rows[r.Workload]; !seen {
			order = append(order, r.Workload)
			rows[r.Workload] = nil
		}
		if !r.Correct {
			incorrect[r.Workload]++
			continue
		}
		rows[r.Workload] = append(rows[r.Workload], r)
	}
	return rows, incorrect, order, sc.Err()
}

// failedShare is the share of the ops attempted in rows that failed.
func failedShare(rows []load.Row) float64 {
	attempted, failed := 0, 0
	for _, r := range rows {
		attempted, failed = attempted+r.Attempted, failed+r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// sameWork reports whether every seed both sets ran drew the same op
// log in both. A log depends on the seed and on the generators in
// internal/workload and internal/datagen, so it differs between two
// commits only when one of them changed a generator.
func sameWork(a, b []load.Row) bool {
	sha := map[int64]string{}
	for _, r := range a {
		sha[r.Seed] = r.Provenance.OpLogSHA256
	}
	for _, r := range b {
		if s, ok := sha[r.Seed]; ok && s != r.Provenance.OpLogSHA256 {
			return false
		}
	}
	return true
}

func values(rows []load.Row, metric string) []float64 {
	var out []float64
	for _, r := range rows {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// asMeasured renders the ratio of the two sets' medians of a timing
// metric before metering (see load/meter.go): the verdict is on the
// metered values, which repeat, and this is the same change on the scale
// a stopwatch reads, which does not. Empty for a metric that is not
// metered.
func asMeasured(a, b []load.Row, metric string) string {
	var va, vb []float64
	for _, r := range a {
		if v, ok := r.AsMeasured[metric]; ok {
			va = append(va, v)
		}
	}
	for _, r := range b {
		if v, ok := r.AsMeasured[metric]; ok {
			vb = append(vb, v)
		}
	}
	if len(va) == 0 || len(vb) == 0 || stat.Median(va) == 0 {
		return ""
	}
	return fmt.Sprintf("%.3f", stat.Median(vb)/stat.Median(va))
}

// Files compares the rows of file b (the change) with those of file a
// (the parent) under the bounds of the BENCHMARK.json at benchmark, and
// reports whether the change is worse: a metric regressed or is missing
// from b, a larger share of b's ops failed, or a run of b failed its
// checks.
func Files(w io.Writer, benchmark, a, b string) (regressed bool, err error) {
	raw, err := os.ReadFile(benchmark)
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %v", benchmark, err)
	}
	rowsA, badA, order, err := readRows(a)
	if err != nil {
		return false, err
	}
	rowsB, badB, _, err := readRows(b)
	if err != nil {
		return false, err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A (base A)\tB/A as measured\tworse by\tbound\tverdict")
	for _, wl := range order {
		ra, rb := rowsA[wl], rowsB[wl]
		if _, ran := rowsB[wl]; !ran {
			continue
		}
		if badA[wl]+badB[wl] > 0 {
			v := OK
			if badB[wl] > 0 {
				v, regressed = Regressed, true
			}
			fmt.Fprintf(tw, "%s\truns that failed their checks (left out)\tcount\t%d\t%d\t\t\t\t\t%s\n", wl, badA[wl], badB[wl], v)
		}
		if fa, fb := failedShare(ra), failedShare(rb); fa+fb > 0 {
			v := OK
			if fb > fa {
				v, regressed = Regressed, true
			}
			fmt.Fprintf(tw, "%s\tfailed ops\tshare\t%.3g\t%.3g\t\t\t\t\t%s\n", wl, fa, fb, v)
		}
		same := sameWork(ra, rb)
		for _, g := range spec.EndToEnd {
			va, vb := values(ra, g.Name), values(rb, g.Name)
			if len(va) == 0 {
				continue
			}
			if len(vb) == 0 {
				regressed = true
				fmt.Fprintf(tw, "%s\t%s\t%s\t(%d)\t(0)\t\t\t\t%.1f%%\tmissing from B\n", wl, g.Name, g.Unit, len(va), 100*g.Bound)
				continue
			}
			v, worse := Judge(va, vb, g.Better, g.Bound)
			note := ""
			if !same && v != Unresolved {
				v, note = Unresolved, " (op logs differ)"
			}
			if v == Regressed {
				regressed = true
			}
			a1, a2, a3 := stat.Quartiles(va)
			b1, b2, b3 := stat.Quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%.3f (%.4g)\t%s\t%+.1f%%\t%.1f%%\t%s%s\n",
				wl, g.Name, g.Unit, a2, a1, a3, len(va), b2, b1, b3, len(vb), b2/a2, a2, asMeasured(ra, rb, g.Name), 100*worse, 100*g.Bound, v, note)
		}
	}
	return regressed, tw.Flush()
}
