# Tier-1 verification is `make` (or `make ci`): build, vet, test, plus a
# single-iteration smoke pass over the perf-critical micro-benchmarks.
GO ?= go
FUZZTIME ?= 20s

.PHONY: all ci build vet test race crash bench bench-short bench-module bench-check fuzz lint lint-metrics clean

all: ci

ci: build vet test crash bench-short lint lint-metrics bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency surface: the service package,
# the traversal engines (a query runs on its caller's goroutine and the
# sharded engine starts none, so core is here for the engine state its
# differential tests reuse across evaluations), the graph-pattern
# subsystem (parallel differential harness over shared selectivity
# caches), the live-update overlay (snapshot swap vs
# concurrent readers/writers), the standing-subscription registry, and
# the root-package stress tests (including the subscription
# close-under-update stress and the standing differential harness),
# plus the wavelet descent kernels the noalloc annotations cover.
race:
	$(GO) test -race ./internal/service/ ./internal/core/ ./internal/ltj/ ./internal/query/ ./internal/overlay/ ./internal/standing/ ./internal/wal/ ./internal/wavelet/ .
	$(GO) test -race -run 'Stress|Clone|Sharded|Update|Subscribe|Standing|Compiled|Durable|Panic|WAL' .

# Crash-recovery property pass: the fault-injection harness kills the
# process (write-budget exhaustion + random crash-point tears of every
# unsynced tail) at 100+ points across the update/compaction workload
# and verifies zero acked-update loss and oracle equality, plus the
# torn-tail, compaction-stage and kill+reboot end-to-end tests.
crash:
	$(GO) test -count=1 -run 'Durable|WAL' ./internal/wal/ .

# Short bounded fuzz runs over the expression parser, the graph-pattern
# parser and the database loader (go native fuzzing; one target per
# invocation). The growing corpus lives in the Go build cache, so
# repeated runs keep digging.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParseExpr -fuzztime $(FUZZTIME) ./internal/pathexpr
	$(GO) test -run NONE -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run NONE -fuzz FuzzDecodeNDJSONUpdates -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzDecodeSubscribeRequest -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzLoadDB -fuzztime $(FUZZTIME) .
	$(GO) test -run NONE -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal

# Service throughput scaling and cache-hit benchmarks.
bench:
	$(GO) test -run NONE -bench 'Service' -benchtime 2s .

# One-iteration smoke run of the hot-path micro-benchmarks (broadword
# select, multi-range wavelet descent, batched vs unbatched BFS), of
# the compactor's (matrix build, counting-sort ring build, bulk triple
# decode, per-batch overlay consolidation) and of the handler's
# result-cache hit: makes sure the benchmark code keeps compiling and
# running under ci.
bench-short:
	$(GO) test -run NONE -bench 'SelectInWord|TraverseMany|BatchedBFS' -benchtime 1x \
		./internal/bitvec/ ./internal/wavelet/ ./internal/core/
	$(GO) test -run NONE -bench 'MatrixBuild|FromTriples|RingTriples|OverlayApply' -benchtime 1x \
		./internal/wavelet/ ./internal/ring/ ./internal/overlay/
	$(GO) test -run NONE -bench CompiledStepperSteadyState -benchtime 100x ./internal/core/
	$(GO) test -run NONE -bench HandlerCacheHit -benchtime 1x ./internal/service/

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

# Metrics/stats coverage lint: every field of the service Stats
# snapshot (including the standing/WAL/latency blocks) must have a
# /metrics series and render in Stats.String(). The reflection-based
# tests fail when a counter is added without its exposition.
lint-metrics:
	$(GO) test -count=1 -run 'TestMetricsCoverage|TestStatsStringCoversAllFields' ./internal/service/

clean:
	$(GO) clean ./...
