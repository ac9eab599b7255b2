# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race vet determinism bench bench-hot bench-json bench-diff warm-cache fuzz chaos serve-metrics smoke-metrics load service-smoke crash-recovery log-bench explain-bench policy-race all

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

# The microtask hot-path benchmarks behind the perf trajectory: batched
# draw kernels, parallel snapshot reads, and one end-to-end SPR query.
# -count 5 lets perfcheck (and benchstat) take medians over noise.
BENCH_HOT = -run '^$$' -bench 'BenchmarkDrawHotPath|BenchmarkViewParallel' -benchtime 0.5s -count 5
BENCH_E2E = -run '^$$' -bench 'BenchmarkSPREndToEnd' -benchtime 2x -count 5
# The scheduler utilization benchmark: one straggler pair among 200 on a
# simulated-latency crowd, wave vs async. perfcheck gates the ordering of
# the reported "util" metric (async must keep the pool busier than waves).
BENCH_SCHED = -run '^$$' -bench 'BenchmarkSchedulerStraggler' -benchtime 3x -count 3

bench-hot:
	$(GO) test ./internal/crowd/ $(BENCH_HOT)
	$(GO) test ./internal/topk/ $(BENCH_E2E)

# Refresh the machine-readable perf trajectory artifact: benchmark medians
# plus one instrumented end-to-end query's QueryStats, in one JSON file.
# bench-raw.txt keeps the raw `go test -bench` text for benchstat.
bench-json:
	$(GO) test ./internal/crowd/ $(BENCH_HOT) > bench-raw.txt
	$(GO) test ./internal/topk/ $(BENCH_E2E) >> bench-raw.txt
	$(GO) test ./internal/topk/ $(BENCH_SCHED) >> bench-raw.txt
	$(GO) run ./cmd/topkquery -n 200 -k 10 -stats-out query-stats.json > /dev/null
	$(GO) run ./cmd/perfcheck -current bench-raw.txt -stats query-stats.json -json BENCH_PR5.json \
		-metric-gate 'util:BenchmarkSchedulerStraggler/async>BenchmarkSchedulerStraggler/wave'

# Cold-vs-warm judgment-store scenario: an 8-query, 50%-overlap mix whose
# repeated half is answered from stored verdicts. Gates warm TMC <= 20%
# of cold with byte-identical top-k results and exact store-counter /
# engine-TMC reconciliation at /debug/accounting, then refreshes the
# committed BENCH_PR7.json artifact.
warm-cache:
	$(GO) run ./cmd/perfcheck -warm-scenario -json BENCH_PR7.json

# Human-readable benchmark deltas against the committed baseline:
# benchstat when available, a pure-awk median table offline. The actual
# regression gate is `perfcheck -baseline` (see bench-json / CI).
bench-diff:
	./scripts/benchdiff.sh BENCH_BASELINE.txt bench-raw.txt

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

# Durability-tax benchmark: the same deterministic query with the audit
# log off, batched (default), and fsync-always, interleaved reps, gated
# so batched logging costs <5% wall time over no logging. Refreshes the
# committed BENCH_PR8.json artifact.
log-bench:
	$(GO) run ./cmd/perfcheck -log-bench -json BENCH_PR8.json

# Explainability-tax benchmark: the same deterministic query with
# observability off and with per-pair cost attribution plus structured
# logging enabled, interleaved reps, gated so the enabled mode costs <3%
# wall time over off with the attribution tree summing exactly to
# Result.TMC on every rep. Refreshes the committed BENCH_PR9.json.
explain-bench:
	$(GO) run ./cmd/perfcheck -explain-bench -json BENCH_PR9.json

# Comparison-policy race: every policy × algorithm against the Lemma 1/3
# infimum. Gates the legacy fixed-step path byte-identical to the
# pre-refactor loop at <3% wall overhead, requires every grid cell
# deterministic across reps, and at least one adaptive policy (voi/pac)
# beating fixed-step Student on TMC-vs-infimum at equal-or-better NDCG.
# Refreshes the committed BENCH_PR10.json; CI diffs it ignoring the
# machine-dependent wall-time lines.
policy-race:
	$(GO) run ./cmd/perfcheck -policy-race -json BENCH_PR10.json

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
