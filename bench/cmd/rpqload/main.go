// Command rpqload is the repository's benchmark: it starts a real rpqd
// child, drives one workload's fixed op log through it over loopback
// HTTP, checks answers against an independent oracle, and prints every
// metric by name and unit.
//
//	go run -C bench ./cmd/rpqload --workload rpq_static --seed 1 --seconds 16 --trace 0
//	go run -C bench ./cmd/rpqload --workload rpq_static --seed 1 --seconds 16 --trace 1
//	go run -C bench ./cmd/rpqload --compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with exactly the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also
// writes bench/out/trace-<workload>.json). --out appends the full row,
// provenance included, to a JSON-lines file that --compare reads.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"ringrpq/bench/compare"
	"ringrpq/bench/load"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: rpq_static, rpq_cached, pattern_select or mixed_rw")
		seed     = flag.Int64("seed", 1, "op-log seed (the dataset seed is fixed)")
		seconds  = flag.Int("seconds", 16, "time budget of the timed passes")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out      = flag.String("out", "", "append the full row to this JSON-lines file")
		cmp      = flag.Bool("compare", false, "compare two JSON-lines files of rows: rpqload --compare A.jsonl B.jsonl")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes two files"))
		}
		regressed, err := compare.Files(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	row, err := load.Run(ctx, load.Options{
		Root: root, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
	})
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := row.Append(*out); err != nil {
			fatal(err)
		}
	}
	for _, note := range row.Provenance.Notes {
		fmt.Fprintln(os.Stderr, "rpqload:", note)
	}
	for _, why := range row.Checks.Reasons {
		fmt.Fprintln(os.Stderr, "rpqload: wrong answer:", why)
	}
	fmt.Printf("%s\n", row.ResultLine())
	if !row.Correct {
		os.Exit(1)
	}
}

// findRoot locates the repository root — the directory that holds
// BENCHMARK.json and bench/ — from the working directory, which is
// bench/ under `go run -C bench` and the root otherwise.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rpqd")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no repository root (BENCHMARK.json beside cmd/rpqd) at or above %s", wd)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpqload:", err)
	os.Exit(2)
}
