# Build/verify targets for Litmus. `make ci` runs what the GitHub
# Actions workflow's verify and chaos jobs run: vet, gofmt, build, the
# suite plain and under the race detector (exercising the assessment
# worker pool), the repeated pool, observability and allocation-bound
# runs, the chaos suite, and the fuzz seed corpora.

GO ?= go

.PHONY: ci vet fmt lint build test race race-pools race-obs alloc-bounds chaos chaos-cluster fuzz-seed eval-sweep bench bench-workers bench-obs bench-json bench-smoke serve-smoke crash-smoke bench-serve bench-batch bench-shard clean

ci: vet fmt build test race race-pools race-obs alloc-bounds chaos fuzz-seed

vet:
	$(GO) vet ./...

# gofmt must have nothing to rewrite; the target lists any file it would.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmt: gofmt -w the files above"; exit 1; }

# Static analysis beyond vet and gofmt. staticcheck and govulncheck are
# optional locally (CI installs them); the target skips whichever is
# missing rather than failing on a lean toolchain.
lint: vet fmt
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector must stay clean over the worker pool: the
# equivalence and concurrent-use tests drive every fan-out path.
race:
	$(GO) test -race ./...

# Repeated race run over the engine's process-wide working-set pools and
# sample cache (internal/core/scratch.go), which every concurrent
# assessment shares: the pool tests (poisoned fit arenas and unit working
# sets, the group, element and batch paths, concurrent panel shapes, the
# sample cache's keys and byte bound), the bit-equivalence tests of the
# buffer forms the pooled working sets feed (Fligner–Policello,
# DesignMatrixInto) and the worker-count equivalence suites of the
# engine and the batch path, ten times each.
race-pools:
	$(GO) test -race -count=10 -run 'TestPool[A-Z]|Equivalence' ./internal/core ./internal/stats ./internal/timeseries .

# Focused race run over the observability layer: the concurrent
# metrics-registry and scope tests plus the instrumented pipeline, then
# the span-freezing and trace-endpoint tests (frozen trees read by
# concurrent GETs while jobs finish) ten times each.
race-obs:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestAssessChangeInstrumentedEquivalence' .
	$(GO) test -race -count=10 -run 'Freeze|Trace' ./internal/obs ./internal/serve

# Every allocation-bound test, twenty runs each: the span, selection,
# per-iteration, per-element and per-element byte budgets of the engine,
# and the network build and series synthesis budgets of the world path. The bounds are
# calibrated on one toolchain and a marginal one flakes rarely, so
# twenty runs show it before it fails on main.
alloc-bounds:
	$(GO) test -count=20 -run '^(TestScopeChildEndAllocs|TestSelectorBytesPerSelect|TestPoolMarginalBytesPerIteration|TestGroupBytesPerElement|TestAssessElementAllocs|TestBuildBytesPerElement|TestSeriesForBytes)$$' \
		./internal/obs ./internal/control ./internal/core ./internal/netsim ./internal/gen

# Chaos suite under the race detector: every fault injector through the
# pipeline (result or typed Degraded reason, clean inputs bit-identical
# to the golden fixture, same fault seed identical at every worker
# count), the broken-data panic audit, and the serve-layer hardening
# tests.
chaos:
	$(GO) test -race -run 'Chaos|Degrad|Fault|Panic|Retr' ./...

# Cluster chaos suite under the race detector: three real service
# nodes behind deterministic netchaos TCP fault proxies, driven through
# the resilient router while latency, drip, reset, stall, partition,
# and kill episodes are applied link by link. Zero requests lost under
# any single-node fault, every completed answer byte-identical to the
# clean cluster's, hedging bounds the slow-node p99, and each proxy's
# realized fault schedule reproduces from (spec, seed, link). Writes
# CHAOS_CLUSTER.json — the per-scenario stats artifact CI uploads.
chaos-cluster:
	LITMUS_CLUSTER_CHAOS=1 LITMUS_CLUSTER_CHAOS_OUT=$(CURDIR)/CHAOS_CLUSTER.json \
		$(GO) test -race -run TestClusterChaos -count=1 -v -timeout 20m ./internal/serve/shard
	@echo wrote CHAOS_CLUSTER.json

# Replay the committed fuzz seed corpora as unit tests (no fuzzing
# engine; catches regressions in the never-panic contracts). Use
# `go test -fuzz=FuzzReadSeries ./cmd/litmus` etc. for real fuzzing.
fuzz-seed:
	$(GO) test ./cmd/litmus ./internal/stats ./internal/faults ./internal/serve/journal ./internal/netchaos -run '^Fuzz'

# Scaled-down fault sweep under the race detector: the Table-4 grid
# plus the adversarial scenario families at corruption rates
# 0/0.01/0.05/0.1/0.2, rendered as a table and written to EVAL_6.json
# (accuracy / FPR / FNR / degraded fraction per scenario × rate) — the
# robustness-curve artifact CI uploads. `-scale 0.05` keeps it cheap;
# drop the flag for the full 9110-cases-per-rate sweep.
eval-sweep:
	$(GO) run -race ./cmd/litmus-eval -sweep -scale 0.05
	@echo wrote EVAL_6.json

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The parallel-engine scaling table recorded in EXPERIMENTS.md.
bench-workers:
	$(GO) test -bench 'WorkerScaling|AssessElementWorkers' -run '^$$' .

# Observability overhead: instrumented vs nil-scope group assessment.
bench-obs:
	$(GO) test -bench 'AssessGroupInstrumented' -benchmem -run '^$$' .

# Machine-readable snapshot of the assessment-kernel benchmarks
# (ns/op, B/op, allocs/op per benchmark) — the artifact CI uploads so
# kernel performance is reviewable per commit. Short -benchtime keeps it
# cheap; use `make bench` for full-length local numbers.
bench-json:
	$(GO) test -bench 'AssessElement$$|AssessElementWorkers|WorkerScaling|QRReuse|Median$$' \
		-benchmem -benchtime 0.2s -run '^$$' . ./internal/linalg ./internal/stats \
		| $(GO) run ./cmd/benchjson -o BENCH_3.json
	@echo wrote BENCH_3.json

# Benchmark smoke: the tests of the bench module (its own Go module, so
# outside the root `go test ./...`), then every benchmark workload for
# two seconds. The run exits non-zero on any wrong or failed answer; its
# library-path recomputation checks the service's answers, world slot
# included, against worlds built from scratch.
bench-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload all --seconds 2 --trace 0

# End-to-end smoke test of the assessment service binary: builds
# cmd/litmus-serve, boots it on an ephemeral port, submits the golden
# scenario through the typed client and asserts the decision (and exact
# bytes) match testdata/golden_assessment.json, then SIGTERMs and
# requires a clean drain.
# The smoke run records flight segments into flight-smoke/ (decoded and
# asserted by the test itself, uploaded as a CI artifact) — inspect a
# local run with `go run ./cmd/litmus-rec -dir flight-smoke`.
serve-smoke:
	LITMUS_SERVE_SMOKE=1 LITMUS_SERVE_SMOKE_FLIGHT_DIR=$(CURDIR)/flight-smoke $(GO) test -run TestServeSmoke -count=1 -v ./cmd/litmus-serve

# Kill -9 crash-recovery smoke: boots litmus-serve with -journal-dir,
# pours in concurrent requests, SIGKILLs mid-run, restarts on the same
# journal, and requires every result a client held before the crash to
# be served byte-identical after replay — zero completed work lost.
crash-smoke:
	LITMUS_CRASH_SMOKE=1 $(GO) test -run TestCrashRecoverySmoke -count=1 -v ./cmd/litmus-serve

# Serving-layer latency/throughput snapshot (p50/p90/p99, jobs/sec,
# cache hit counters) — the BENCH_4.json artifact CI uploads.
bench-serve:
	$(GO) run ./cmd/litmus-loadgen -n 200 -c 8 -o BENCH_4.json
	@echo wrote BENCH_4.json

# Batch-vs-singles amortization proof. First the engine-level benchmark
# pair (AssessChangelog vs per-change AssessChangeContext) through
# cmd/benchjson for trend-spotting, then the full service-path run: a
# 1000-entry changelog as one POST /v1/assess/batch vs 1000 sequential
# singles, written to BENCH_8.json — the target (wall ≤ 0.35× the
# singles, allocations ≤ 0.25× of N standalone jobs that each build
# their world) is enforced by the run's exit code.
bench-batch:
	$(GO) test -bench 'BatchChangelog|SequentialSingles' -benchmem -benchtime 1x -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_8_engine.json
	$(GO) run ./cmd/litmus-loadgen -batch -o BENCH_8.json
	@echo wrote BENCH_8.json and BENCH_8_engine.json

# Sharded-serving proof: the same workload (5 rounds over 120 distinct
# requests) routed by consistent-hashed digest against 1 vs 3 in-process
# nodes, each with an 80-entry cache. The single node LRU-thrashes and
# recomputes every round; the 3-node ring holds the whole working set.
# Written to BENCH_9.json — the targets (≥ 2.2× throughput, every digest
# computed on exactly one node, zero failovers) are enforced by the
# run's exit code.
bench-shard:
	$(GO) run ./cmd/litmus-loadgen -shard -o BENCH_9.json
	@echo wrote BENCH_9.json

clean:
	$(GO) clean ./...
