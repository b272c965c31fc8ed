package load

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Provenance says what a row measured and where, so that two rows can
// be shown comparable before their numbers are compared.
type Provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`

	RpqdFlags        []string  `json:"rpqd_flags"`
	DatasetSeed      int       `json:"dataset_seed"`
	Graph            GraphSpec `json:"graph"`
	CompletedTriples int64     `json:"completed_triples"`
	// FlushPolicy is the WAL fsync policy, or why there is none.
	FlushPolicy string `json:"flush_policy"`

	OpLogSHA256    string `json:"oplog_sha256"`
	Ops            int    `json:"ops"`
	Reads          int    `json:"reads"`
	Writes         int    `json:"writes"`
	RequestLimit   int    `json:"request_limit"`
	RequestTimeout string `json:"request_timeout"`

	Connections      int `json:"throughput_connections"`
	Setups           int `json:"setups"`
	WarmPasses       int `json:"warm_passes"`
	LatencyPasses    int `json:"latency_passes"`
	ThroughputPasses int `json:"throughput_passes"`
	// ReadTailPercentile is the percentile read_p99_ms was taken at:
	// the highest with at least ten of ReadSamples ops beyond it.
	ReadTailPercentile float64 `json:"read_tail_percentile"`
	ReadSamples        int     `json:"read_samples"`
	WriteSamples       int     `json:"write_samples"`

	// ClientCPUUS is the harness's own CPU per request (µs) in each
	// metered pass, in order, and Slowdown that value over the
	// workload's reference: the factor every time measured in the pass
	// was divided by (see meter.go). Multiplying a reported time by its
	// pass's slowdown gives the time as measured.
	ClientCPUUS []float64 `json:"client_cpu_us_per_request"`
	Slowdown    []float64 `json:"slowdown"`
	// RefWorkUS is, for a workload metered by reference work instead,
	// what one piece of it took in each metered pass (µs, the mean of
	// the middle half); Slowdown is then that over the reference.
	RefWorkUS []float64 `json:"ref_work_us,omitempty"`
	// PassWallMS and PassServerCPUMS are each metered pass's wall time
	// and rpqd's CPU time over it, as measured.
	PassWallMS      []float64 `json:"pass_wall_ms"`
	PassServerCPUMS []float64 `json:"pass_server_cpu_ms"`

	// LoadS is how long the harness took to load and index the graph, and
	// SetupSlowdown that time over the graph's reference: the factor
	// setup_s was divided by.
	LoadS         float64 `json:"harness_load_s"`
	SetupSlowdown float64 `json:"setup_slowdown"`

	Notes []string `json:"notes,omitempty"`
}

// Row is one run: what the driver's last line carries, plus the
// provenance and checks `rpqload -compare` and a reader need.
type Row struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// AsMeasured holds the timing metrics of an untraced run before
	// metering (see meter.go): what a stopwatch beside the box read.
	AsMeasured map[string]float64 `json:"as_measured,omitempty"`
	Checks     Checks             `json:"checks"`
	Durability *Durability        `json:"durability,omitempty"`
	Provenance Provenance         `json:"provenance"`
}

// ResultLine renders the one JSON object the driver reads from the last
// line of standard output: exactly correct, attempted, failed, metrics.
func (r *Row) ResultLine() []byte {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return b
}

// Append adds the full row as one line to a JSON-lines file.
func (r *Row) Append(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// machine fills in the provenance fields that describe the host and the
// commit. The commit is read only from a .git directly under root: the
// driver's checkout has none, and walking up could name another
// repository's HEAD.
func machine(root string) Provenance {
	p := Provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	return p
}
