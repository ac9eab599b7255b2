# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race vet determinism bench bench-hot overhead fuzz chaos serve-metrics smoke-metrics load service-smoke crash-recovery all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency suite under the race detector: the engine's striped
# locks, the runner's memo, and the parallel comparison waves.
race:
	$(GO) test -race ./...

# go vet plus a gofmt gate: any file gofmt would rewrite fails the target
# (dot-directories such as .bench_build/ are skipped).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# The deterministic-mode contracts at several GOMAXPROCS values, repeated:
# result and audit-log identity across Parallelism for the root, topk and
# compare layers, and the step loop's byte identity with the frozen
# pre-refactor comparison loop. Then the whole topk and compare suites
# once at each GOMAXPROCS value; the root package stays on its listed
# subtests until its async answer set is invariant too.
DETERMINISM = -cpu 1,2,8 -count 3
determinism:
	$(GO) test . $(DETERMINISM) -run 'TestPolicyLayerCrossLayerEquivalence/.*/deterministic'
	$(GO) test . $(DETERMINISM) -run 'TestQueryParallelismEquivalence|TestSessionParallelismEquivalence'
	$(GO) test ./internal/topk/ $(DETERMINISM) -run 'TestAlgorithmsParallelEquivalence|TestCompareAllParallelEquivalence'
	$(GO) test ./internal/compare/ $(DETERMINISM) -run 'TestConcurrentAdvanceMatchesSequential|TestRunnerMatchesLegacyReferenceLoop'
	$(GO) test ./internal/topk/ ./internal/compare/ -cpu 1,2,8 -count 1

# Wall-clock impact of the comparison-wave worker pool, plus the existing
# algorithm cost benchmarks.
bench:
	$(GO) test ./internal/topk/ -run '^$$' -bench BenchmarkCompareAllParallel -benchtime 3x
	$(GO) test ./internal/crowd/ -run '^$$' -bench . -benchtime 100x

# The microtask hot-path benchmarks: batched draw kernels, parallel
# snapshot reads, and one end-to-end SPR query. -count 5 lets benchstat
# take medians over noise. The end-to-end perf ledger is perfbench
# (bash perfbench/run.sh).
BENCH_HOT = -run '^$$' -bench 'BenchmarkDrawHotPath|BenchmarkViewParallel' -benchtime 0.5s -count 5
BENCH_E2E = -run '^$$' -bench 'BenchmarkSPREndToEnd' -benchtime 2x -count 5

bench-hot:
	$(GO) test ./internal/crowd/ $(BENCH_HOT)
	$(GO) test ./internal/topk/ $(BENCH_E2E)

# What observability costs one query: the same deterministic query with
# the persistent audit log (batched, gated <5% wall over off; and
# fsync-always, reported only) and with cost attribution plus debug
# logging (gated <3%), interleaved best-of reps. Every run must keep TMC
# and top-k identical, every log must hold TMC records and verify, and
# every attribution tree must sum to Result.TMC. Prints to stdout.
overhead:
	$(GO) run ./cmd/perfcheck

# Run one query with the live telemetry endpoint up: Prometheus metrics on
# /metrics, expvar JSON on /debug/vars, the span trace on /trace, and live
# pprof profiles on /debug/pprof/ (go tool pprof http://ADDR/debug/pprof/profile).
serve-metrics:
	$(GO) run ./cmd/topkquery -n 200 -k 10 -metrics-addr 127.0.0.1:9090 -serve-wait 10m

# End-to-end telemetry smoke test: scrape /metrics and /debug/vars of a
# live chaos query and assert the TMC counter matches the reported cost.
smoke-metrics:
	./scripts/metrics_smoke.sh

# The concurrent query load harness under the race detector: hundreds of
# queries with mixed priorities, budget sub-caps and random mid-flight
# cancellations against the faulty platform, exact global accounting and
# goroutine stability throughout (internal/loadtest).
load:
	$(GO) test -race ./internal/loadtest/ -count 1 -v

# Service-layer smoke test: boot topkd against a faulty simulated crowd,
# fire 20 concurrent queries with cancellations over HTTP, and gate on
# the exact-money invariant at /debug/accounting plus a clean SIGTERM
# drain.
service-smoke:
	./scripts/load_smoke.sh

# Crash recovery end to end: the audit log's kill-at-every-io-step and
# truncate-at-every-offset table tests plus tamper attribution under the
# race detector, then the topkd kill -9 / -resume smoke (three lives of
# one directory, exact zero-re-buy accounting).
crash-recovery:
	$(GO) test -race ./internal/auditlog/ -run 'TestCrash|TestTruncate|TestTamper|TestVerify' -count 1
	$(GO) test -race . -run 'TestAudit|TestResume' -count 1
	./scripts/crash_smoke.sh

# Short fuzzing sessions: compareAll's duplicate/orientation grouping, and
# randomized platform fault schedules against the resilience layer. Go
# runs one -fuzz target per invocation, hence two commands.
fuzz:
	$(GO) test ./internal/topk/ -run '^$$' -fuzz FuzzCompareAllGrouping -fuzztime 30s
	$(GO) test ./internal/topk/ -run '^$$' -fuzz FuzzFaultSchedule -fuzztime 30s

# The deterministic chaos suite under the race detector: seeded fault
# schedules (drops, stragglers, duplicates, corruption, transient and
# permanent errors) against the resilient platform stack.
chaos:
	$(GO) test -race ./internal/crowd/ -run 'TestResilient|TestFaulty|TestEngine(Refunds|Latch|FirstFailure|DrawOne|Reset|CapAndFailure)|TestReplayThenLive|TestReadLog' -count 1
	$(GO) test -race ./internal/topk/ -run 'TestChaos' -count 1
	$(GO) test -race . -run 'TestQueryPartial|TestQueryResilience|TestSessionExactSpend|TestSessionConcurrent|TestResumeOracle' -count 1

all: build vet test race
