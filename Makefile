GO ?= go

.PHONY: build test verify ci staticcheck govulncheck fuzz-smoke serve-smoke load-smoke suite-smoke benchhost bench bench-suite bench-kernel bench-stream bench-serve tables report

# Pinned external analyzer versions; CI installs exactly these, local runs
# use whatever is on PATH (or skip with a notice).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the full correctness gate: go vet static analysis over every
# package (including internal/obs and the instrumented engine) plus the
# entire test suite — the parallel-vs-serial oracle, the telemetry-on
# determinism oracle and the vm-vs-walker differential included — under
# the race detector.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...

# ci is the continuous-integration gate (mirrored by the GitHub Actions
# workflow): static analysis (vet always; staticcheck and govulncheck when
# installed), a full build, the race-enabled test suite, and a short smoke
# pass over each native fuzz target.
ci:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) govulncheck
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) load-smoke
	$(MAKE) suite-smoke

# staticcheck / govulncheck run the pinned external analyzers when present
# on PATH and skip with a notice otherwise, so `make ci` works in offline
# containers; the GitHub Actions workflow installs the pinned versions and
# therefore always runs them.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# fuzz-smoke runs each fuzz target briefly — long enough to execute the
# committed seed corpora plus a burst of new inputs, short enough for CI —
# plus a race-enabled pass over the streaming broadcast stage (producer,
# ring and consumer goroutines under contention).
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadFile -fuzztime=10s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzAssemble -fuzztime=10s -run '^$$' ./internal/asm
	$(GO) test -fuzz=FuzzAlignHandler -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzExtTSPSemantics -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzTryNMatchesExhaustive -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzImportCFG -fuzztime=10s -run '^$$' ./internal/cfgio
	$(GO) test -fuzz=FuzzImportDOT -fuzztime=10s -run '^$$' ./internal/cfgio
	$(GO) test -race -run 'TestBroadcast|TestSimulateStream' ./internal/sim

# serve-smoke boots a real balignd process on an ephemeral port, drives
# /healthz, /v1/align and /v1/simulate over HTTP, then SIGTERMs it and
# asserts a clean graceful drain. Complements the in-process httptest
# coverage in internal/serve with a real listener + signal path.
serve-smoke:
	bash scripts/serve_smoke.sh

# load-smoke is the sharded-serving gate. The race leg runs the router
# correctness suite with the scheduler forced wide: shard affinity (same
# cache key -> same shard for N in 1,2,4), byte-identity of routed vs
# direct responses across all five request encodings, cache-hit survival
# through sharding, and the drain/fault leg (SIGTERM a backend mid-run,
# in-flight completes, one retry succeeds, zero dropped). The script leg
# boots the real process tree (router + 2 shard processes), drives a short
# closed-loop baload run and asserts clean drain. See DESIGN.md §16.
load-smoke:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/serve/router
	GOMAXPROCS=4 $(GO) test -race -run 'TestVirtualReport' ./internal/load
	bash scripts/load_smoke.sh

# suite-smoke reruns the multi-core determinism oracles with the Go
# scheduler forced wide (GOMAXPROCS=4) under the race detector: the
# producer, per-architecture consumers and intra-variant shard goroutines
# genuinely interleave even on smaller CI hosts, and any ordering bug
# surfaces as a byte diff or a race report. The extended-families leg runs
# the adversarial workloads (phase-flipping branches included) and an
# imported CFG document across the stream on/off matrix; the tagged leg
# pins the TAGE/perceptron grid byte-identical across stream on/off, both
# kernel modes and shard counts; the cfgio leg is the importer/exporter
# round-trip oracle on the same machinery.
suite-smoke:
	GOMAXPROCS=4 $(GO) test -race -run 'TestDeterminismAcrossGOMAXPROCS|TestShardedRunActuallyShards' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestExtendedFamiliesStreamParity' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestTaggedPredictorStreamParity' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestImportExportRoundTripOracle|TestEmptyFallBlockRoundTrips' ./internal/cfgio
	GOMAXPROCS=4 $(GO) test -race -run 'TestShardMerge' ./internal/kernel

# benchhost prints the host block (goos/goarch/cpu/go/gomaxprocs/cpus)
# that the committed BENCH_*.json files record; the bench targets emit it
# first so pasted logs carry their provenance.
benchhost:
	@$(GO) run ./scripts/benchhost

# report runs a small suite with run telemetry enabled, emitting a JSON
# run report (per-shard spans, engine stats, trace-cache stats, the
# summary grid), then sanity-checks the report schema via the dedicated
# test in cmd/baexp.
report:
	$(GO) run ./cmd/baexp -scale 0.1 -programs ora,compress -parallel 0 -report out.json suite
	$(GO) test -run TestRunReportSchema ./cmd/baexp

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-suite compares the experiment engine's serial oracle path against
# the 8-way sharded run on the same grid.
bench-suite:
	$(GO) test -bench 'BenchmarkSuite(Serial|Parallel)' -run '^$$' .

# bench-kernel compares the reference simulators against the compiled flat
# kernel, both end-to-end (full suite runs) and on the simulation grid in
# isolation (pre-recorded traces). These are the BENCH_kernel.json numbers.
bench-kernel:
	@$(MAKE) --no-print-directory benchhost
	$(GO) test -bench 'Benchmark(SuiteKernel|SimulateGrid)' -benchtime 3x -run '^$$' .

# bench-stream compares the recorded trace lifecycle (-stream=off) against
# the streaming broadcast pipeline (-stream=on), end-to-end and on walker
# generation in isolation. These are the BENCH_stream.json numbers.
bench-stream:
	@$(MAKE) --no-print-directory benchhost
	$(GO) test -bench 'Benchmark(SuiteStream|WalkerGenerate)' -benchtime 3x -run '^$$' .

# bench-serve regenerates BENCH_serve.json: the single-node saturation
# sweep plus measured and modeled 1/2/4-shard scaling through the
# consistent-hash router. See scripts/benchserve for what each phase means
# and how the 1-CPU caveats are recorded.
bench-serve:
	$(GO) run ./scripts/benchserve

tables:
	$(GO) run ./cmd/baexp -scale 0.2 all
