# Build/verify targets for Litmus. `make ci` runs what the GitHub
# Actions workflow's verify and chaos jobs run: vet, gofmt, build, the
# suite plain and under the race detector (exercising the assessment
# worker pool), the repeated pool, observability and allocation-bound
# runs, the chaos suite, and the fuzz seed corpora.

GO ?= go

.PHONY: ci vet fmt lint build test race race-pools race-obs alloc-bounds chaos chaos-cluster fuzz-seed eval-sweep tables bench bench-workers bench-obs bench-smoke serve-smoke crash-smoke clean

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
# engine and the batch path, ten times each; then the process-wide free
# list of generators (internal/seedmix): a recycled generator against a
# fresh source, and concurrent network builds and series draws against
# sequential ones; netsim's process-wide layout slot: builds of two
# shapes, each twice in a row, on several goroutines, each missing,
# adding IDs to or replaying the slot's layout, against sequential ones;
# and the serve tier's free list of study-series buffers
# (internal/serve/world.go): its bound, then, with every released buffer
# NaN-filled, the golden request on a batch's buffer, a batch against
# single submissions and concurrent jobs against worlds built from
# scratch.
race-pools:
	$(GO) test -race -count=10 -run 'TestPool[A-Z]|Equivalence' ./internal/core ./internal/stats ./internal/timeseries . ./internal/seedmix ./internal/gen ./internal/netsim ./internal/serve

# Focused race run over the observability layer: the concurrent
# metrics-registry and scope tests plus the instrumented pipeline (its
# registry scraped or snapshotted by another goroutine while it runs),
# then the trace-store, span-freezing and trace-endpoint tests (siblings
# recorded from several goroutines, stale scopes of a restarted
# recorder, frozen trees read by concurrent GETs while jobs finish, two
# workers reusing their recorders) ten times each.
race-obs:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestAssessChange(Instrumented|FlightRecorded)Equivalence' .
	$(GO) test -race -count=10 -run 'Freeze|Trace' ./internal/obs ./internal/serve

# Every allocation-bound test, twenty runs each: the span (a warm
# Child+End, a warm labeled-counter lookup, the golden job's trace on a
# warm recorder), a status document on a reused encoder, the selection,
# per-iteration, per-element and per-element byte budgets of the engine,
# the network build (replaying its shape's layout, and the miss and
# second build, which must cost no more than a build did before layouts
# were shared), generator (new and derived) and series synthesis budgets
# of the world path, a panel sized once, a warm world's provider serving
# a change's study series from a listed buffer, and the batch path's
# amortization against cold singles (allocations and CPU time). The
# bounds are calibrated on one toolchain and a marginal one flakes
# rarely, so twenty runs show it before it fails on main.
alloc-bounds:
	$(GO) test -count=20 -run '^(TestScopeChildEndAllocs|TestLabeledCounterAllocs|TestTraceBytes|TestWriteJSONBytes|TestSelectorBytesPerSelect|TestPoolMarginalBytesPerIteration|TestGroupBytesPerElement|TestAssessElementAllocs|TestElementSize|TestBuildBytesPerElement|TestColdBuildBytesPerElement|TestNewGeneratorBytes|TestSeriesForBytes|TestPanelBytes|TestProviderBytes|TestBatchAmortization)$$' \
		./internal/obs ./internal/control ./internal/core ./internal/netsim ./internal/gen ./internal/timeseries ./internal/serve ./internal/serve/client

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
# out/CHAOS_CLUSTER.json — the per-scenario stats artifact CI uploads
# (out/ is git-ignored; the committed CHAOS_CLUSTER.json is a snapshot).
chaos-cluster:
	mkdir -p out
	LITMUS_CLUSTER_CHAOS=1 LITMUS_CLUSTER_CHAOS_OUT=$(CURDIR)/out/CHAOS_CLUSTER.json \
		$(GO) test -race -run TestClusterChaos -count=1 -v -timeout 20m ./internal/serve/shard
	@echo wrote out/CHAOS_CLUSTER.json

# Replay the committed fuzz seed corpora as unit tests (no fuzzing
# engine; catches regressions in the never-panic contracts and in the
# assessment writer's agreement with encoding/json). Use
# `go test -fuzz=FuzzReadSeries ./cmd/litmus` etc. for real fuzzing.
fuzz-seed:
	$(GO) test ./cmd/litmus ./internal/stats ./internal/faults ./internal/serve/journal ./internal/netchaos . -run '^Fuzz'

# Scaled-down fault sweep under the race detector: the Table-4 grid
# plus the adversarial scenario families at corruption rates
# 0/0.01/0.05/0.1/0.2, rendered as a table and written to
# out/EVAL_6.json (accuracy / FPR / FNR / degraded fraction per
# scenario × rate) — the robustness-curve artifact CI uploads (out/ is
# git-ignored; the committed EVAL_6.json is a snapshot). `-scale 0.05`
# keeps it cheap; drop the flag for the full 9110-cases-per-rate sweep.
eval-sweep:
	mkdir -p out
	$(GO) run -race ./cmd/litmus-eval -sweep -scale 0.05 -sweep-out out/EVAL_6.json

# The reproduction's full-volume tables: the confusion matrices of
# Table 2 (313 cases) and Table 4 (8,010 cases) for all three
# algorithms against internal/eval/testdata/tables.json; any changed
# count fails (about half a minute, Table 4 most of it).
tables:
	LITMUS_TABLES=1 $(GO) test -run '^TestTables$$' -count=1 -v ./internal/eval

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The parallel-engine scaling table recorded in EXPERIMENTS.md.
bench-workers:
	$(GO) test -bench 'WorkerScaling|AssessElementWorkers' -run '^$$' .

# Observability overhead: instrumented vs nil-scope group assessment.
bench-obs:
	$(GO) test -bench 'AssessGroupInstrumented' -benchmem -run '^$$' .

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
# bytes) match testdata/golden_assessment.json, requires /metrics to
# show the request, cache and job series the run moved, then SIGTERMs
# and requires a clean drain.
serve-smoke:
	LITMUS_SERVE_SMOKE=1 $(GO) test -run TestServeSmoke -count=1 -v ./cmd/litmus-serve

# Kill -9 crash-recovery smoke: boots litmus-serve with -journal-dir,
# pours in concurrent requests, SIGKILLs mid-run, restarts on the same
# journal, and requires every result a client held before the crash to
# be served byte-identical after replay — zero completed work lost.
crash-smoke:
	LITMUS_CRASH_SMOKE=1 $(GO) test -run TestCrashRecoverySmoke -count=1 -v ./cmd/litmus-serve

clean:
	$(GO) clean ./...
