# Tier-1 verification is `make` (or `make ci`): build, vet, test, plus a
# single-iteration smoke pass over the perf-critical micro-benchmarks.
GO ?= go
FUZZTIME ?= 20s

.PHONY: all ci build vet test race crash ceilings examples bench bench-short paper bench-module bench-check fuzz lint lint-metrics size clean

all: ci

ci: build vet test crash ceilings examples bench-short lint lint-metrics bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency surface: the service package,
# the traversal engine (a query runs on its caller's goroutine and
# starts none, so core is here for the engine state its differential
# tests reuse across evaluations), the graph-pattern
# subsystem (parallel differential harness, one executor per
# subtest), the live-update overlay (snapshot swap vs
# concurrent readers/writers), the standing-subscription registry, and
# the root-package stress tests (including the subscription
# close-under-update stress and the standing differential harness),
# plus the wavelet descent kernels the noalloc annotations cover.
race:
	$(GO) test -race ./internal/service/ ./internal/core/ ./internal/ltj/ ./internal/query/ ./internal/overlay/ ./internal/standing/ ./internal/wal/ ./internal/wavelet/ .
	$(GO) test -race -run 'Stress|Clone|Sharded|Update|Subscribe|Standing|Compiled|Durable|Panic|WAL|Cancel|Context' .

# Crash-recovery property pass: the fault-injection harness kills the
# process (write-budget exhaustion + random crash-point tears of every
# unsynced tail) at 100+ points across the update/compaction workload
# and verifies zero acked-update loss and oracle equality, plus the
# torn-tail, compaction-stage and kill+reboot end-to-end tests.
crash:
	$(GO) test -count=1 -run 'Durable|WAL' ./internal/wal/ .

# The work ceilings are exact counts (wavelet visits, product nodes and
# edges, allocations per warm evaluation), so they must repeat: run the
# ceiling test and the numbering's visit test twice over, at one and at
# two procs. A count that moves between runs is a nondeterminism bug,
# not noise to widen a ceiling over.
ceilings:
	$(GO) test -count=2 -cpu 1,2 -run 'TestWorkCeilings|TestVarVarClosureWork|TestDegreeNumberingVisits' .

# Run every example program under a timeout: they are the public API's
# first users, and go build only compiles them. Their output includes
# timings, so only the exit status is checked.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		timeout 120s $(GO) run ./$$d > /dev/null || { echo "examples: $$d failed" >&2; exit 1; }; \
	done

# Short bounded fuzz runs over the expression parser, the graph-pattern
# parser, the service's request decoders and response appender, the
# database loader and the WAL (go native fuzzing; one target per
# invocation). The growing corpus lives in the Go build cache, so
# repeated runs keep digging.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParseExpr -fuzztime $(FUZZTIME) ./internal/pathexpr
	$(GO) test -run NONE -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run NONE -fuzz FuzzDecodeNDJSONUpdates -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzDecodeSubscribeRequest -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzFragment -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzLoadDB -fuzztime $(FUZZTIME) .
	$(GO) test -run NONE -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal

# Service throughput scaling and cache-hit benchmarks.
bench:
	$(GO) test -run NONE -bench 'Service' -benchtime 2s .

# One-iteration smoke run of the hot-path micro-benchmarks (broadword
# select, multi-range wavelet descent over frontier-shaped and
# one-position L_s-shaped ranges, batched vs unbatched BFS, the
# Limit-bound traversal, reads with and without an overlay attached to
# the kernel, a pattern join under a fixed order, a pattern pool
# through one executor's plan memo), of the builder's (matrix build,
# counting-sort ring build), of the write path's per-batch overlay
# consolidation, of the compactor's (wavelet-matrix and ring merges of
# 1000 edits, and a g100k database's Flush of a 1000-edge overlay, the
# merge and the residual overlay's Diff, with edits/op), of a
# fresh database's Load + Build (locality numbering included, with
# allocs/op), of the g100k Table-1 log through a built database (with
# visits/op), of the same log with one mixed 16-edge update batch
# applied before each read, so every read crosses a new overlay version
# (with allocs/op), of the pattern planner's once-per-executor count of
# every completed predicate's distinct subjects, of the compiled
# Glushkov reverse step and the 8-bit-split interpreted one, of the
# handler's result-cache hit and miss, and one pass
# of the paper's Table-2 log through the ring and NavBFS arms: makes
# sure the benchmark code keeps compiling and running under ci. A descent
# change is sized with paired -count runs of the same benchmarks, e.g.
# go test -run NONE -bench 'TraverseMany|WorkLog' -count 10 at each
# commit, and a compaction change as BenchmarkWorkLog sizes the
# kernel: go test -run NONE -bench '^BenchmarkCompaction$$' -count 10 .
# at each commit, alternating, and a change to the read path over a
# live overlay with '^BenchmarkVersionedReads$$' the same way.
bench-short:
	$(GO) test -run NONE -bench 'SelectInWord|TraverseMany|BatchedBFS|LimitedBFS' -benchtime 1x \
		./internal/bitvec/ ./internal/wavelet/ ./internal/core/
	$(GO) test -run NONE -bench 'MatrixBuild|MatrixMerge|FromTriples|RingMerge|OverlayApply|StaticReads|UnionReads10' -benchtime 1x \
		./internal/wavelet/ ./internal/ring/ ./internal/overlay/
	$(GO) test -run NONE -bench '^Benchmark(Build|WorkLog|Compaction|VersionedReads|PredicateSubjectCounts)$$' -benchtime 1x .
	$(GO) test -run NONE -bench '^BenchmarkTable2$$/^(Ring|NavBFS)$$' -benchtime 120x .
	$(GO) test -run NONE -bench CompiledStepperSteadyState -benchtime 100x ./internal/core/
	$(GO) test -run NONE -bench '^Benchmark(StepBack|StepRevSplit8)$$' -benchtime 1x ./internal/glushkov/
	$(GO) test -run NONE -bench 'HandlerCacheHit|HandlerMiss' -benchtime 1x ./internal/service/
	$(GO) test -run NONE -bench JoinWith -benchtime 1x ./internal/ltj/
	$(GO) test -run NONE -bench ExecRunPool -benchtime 1x ./internal/query/

# The paper's comparison (Table 2): one pass of the Table-1 log (112
# queries, then its first eight again) through all four arms (ring, NavBFS, ALP, relational) over the
# graph as Build numbers it, at limit 100 000 and a 2 s timeout, with
# bytes/edge and timeouts per arm. Not part of ci: ALP's and
# relational's timeouts make it take about 15 s.
paper:
	$(GO) test -run NONE -bench '^BenchmarkTable2$$' -benchtime 120x .

# The benchmark (rpqload, BENCHMARK.json) is a module of its own under
# bench/ that imports this one's internal packages and reads its span
# and /stats shapes: vet and test it here so that a change to either
# cannot break the judge unseen.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Judge two sets of rows written with `rpqload --out`, A the parent's
# and B the change's: make bench-check A=parent.jsonl B=change.jsonl.
# Exits nonzero on a `regressed` verdict.
bench-check:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-check A=<rows> B=<rows>" >&2; exit 2; }
	$(GO) run -C bench ringrpq/bench/cmd/rpqload --compare $(abspath $(A)) $(abspath $(B))

# Repo-invariant static analysis (internal/lint + cmd/rpqlint):
# ctxfirst, spanend, deadlineloop, locksend, walerr and noalloc over
# the whole tree, the benchmark's module under bench/ included. Zero
# dependencies; fails on any unsuppressed
# violation. See README "Static analysis" for the suppression syntax.
lint:
	$(GO) run ./cmd/rpqlint ./...
	cd bench && $(GO) run ringrpq/cmd/rpqlint ./...

# Metrics coverage lint: every field of the service Stats snapshot
# (including the standing/WAL/latency blocks) must have a /metrics
# series. The reflection-based test fails when a counter is added
# without its exposition.
lint-metrics:
	$(GO) test -count=1 -run 'TestMetricsCoverage' ./internal/service/

# Line counts of the tree, for a change's before/after: non-test Go
# lines outside bench/, non-test Go lines in bench/, and test lines
# outside bench/. Not part of ci.
size:
	@printf 'non-test Go lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'non-test Go lines in bench/:      '; find ./bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'test lines outside bench/:        '; find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
