# Development targets for pacds. `make verify` is the tier-1 gate every
# PR must keep green (see ROADMAP.md).

GO ?= go

.PHONY: all build fmt-check test vet race verify cover perfbench-check examples bench bench-quick bench-sessions bench-check bench-server bench-server-check bench-compute bench-compute-check trace-demo profile profile-compute fuzz load chaos clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every .go file in the tree is gofmt-clean; gofmt -l lists any that is not.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

# Race-sensitive packages: the message-passing protocol layers, the
# concurrent serving subsystem, the session manager (lock-striped shards,
# reaper, eviction), the parallel experiment engine, the load harness
# (whose workers share collectors and histograms), the resilience/chaos
# layers (breakers, token buckets, fault transports), the tracing ring
# (concurrent span commits racing /debug/traces readers), and the
# parallel compute pipeline (par worker primitive, parallel cds marking,
# parallel udg builder — whose determinism property tests assert
# byte-identical output at every worker count under the racer), and the
# graph model, whose Builder cdsd's workers share through a pool.
race:
	$(GO) test -race ./internal/distributed/ ./internal/sim/ ./internal/server/ ./internal/topo/ ./internal/experiments/ ./internal/load/ ./internal/resilience/ ./internal/chaos/ ./internal/obs/ ./internal/par/ ./internal/cds/ ./internal/udg/ ./internal/graph/

# Statement-coverage floors for the core pruning library, the serving
# subsystem, the load harness, the resilience primitives, the session
# manager, the tracing layer, the message-passing protocol, the lifetime
# simulator, the packet-level traffic layer, the graph model with its
# set kernels, the unit-disk builders and the grid index. Each floor was
# set about 5 points below its package's measurement at the time; the
# latest measurements, in the order below, are 95.0 / 90.7 / 85.5 / 98.3
# / 90.6 / 98.9 / 94.9 / 91.7 / 92.4 / 98.0 / 91.5 / 91.7. Raise the
# floors as coverage grows, never lower them to admit a regression.
COVER_FLOOR_CDS        ?= 88
COVER_FLOOR_SERVER     ?= 80
COVER_FLOOR_LOAD       ?= 75
COVER_FLOOR_RESILIENCE ?= 85
COVER_FLOOR_TOPO       ?= 80
COVER_FLOOR_OBS        ?= 80
COVER_FLOOR_DISTRIBUTED ?= 89
COVER_FLOOR_SIM        ?= 86
COVER_FLOOR_TRAFFIC    ?= 87
COVER_FLOOR_GRAPH      ?= 92
COVER_FLOOR_UDG        ?= 87
COVER_FLOOR_GEOM       ?= 87
cover:
	@for spec in "./internal/cds/:$(COVER_FLOOR_CDS)" \
	             "./internal/server/:$(COVER_FLOOR_SERVER)" \
	             "./internal/load/:$(COVER_FLOOR_LOAD)" \
	             "./internal/resilience/:$(COVER_FLOOR_RESILIENCE)" \
	             "./internal/topo/:$(COVER_FLOOR_TOPO)" \
	             "./internal/obs/:$(COVER_FLOOR_OBS)" \
	             "./internal/distributed/:$(COVER_FLOOR_DISTRIBUTED)" \
	             "./internal/sim/:$(COVER_FLOOR_SIM)" \
	             "./internal/traffic/:$(COVER_FLOOR_TRAFFIC)" \
	             "./internal/graph/:$(COVER_FLOOR_GRAPH)" \
	             "./internal/udg/:$(COVER_FLOOR_UDG)" \
	             "./internal/geom/:$(COVER_FLOOR_GEOM)"; do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		$(GO) test -coverprofile=cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "coverage $$pkg: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN {exit !(p >= f)}' || \
			{ echo "FAIL: $$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
	done; rm -f cover.out

# The benchmark harness is a Go module of its own (perfbench/go.mod), so
# the root ./... patterns above skip it. Vet it and run its short tests in
# place, so a change to a name it calls fails here rather than only when
# the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -short .

# Run every examples/* program and fail on any nonzero exit, so a facade
# change that breaks an example fails here and not only at `go build`.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || { echo "FAIL: $$d"; exit 1; }; \
	done

verify: build fmt-check vet test race cover perfbench-check examples

# Perf-focused benchmarks behind the numbers in README.md's Performance
# section. Writes the raw `go test -bench` stream to bench.out and a JSON
# summary (mean ns/op, allocs/op and reported metrics per benchmark) to
# BENCH_PR3.json.
BENCH_PATTERN ?= ApplyRulesFixpoint|CoverageKernels|SweepWorkers|Marking$$|RuleAblation$$
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 5 . | tee bench.out
	$(GO) run ./cmd/benchjson -o BENCH_PR3.json bench.out

# One-iteration smoke pass over every benchmark in the repository.
bench-quick:
	$(GO) test -bench . -benchtime 1x ./...

# Short fuzz pass over the edge-list parser, the encoder round-trip, the
# cdsd compute endpoint (hostile JSON must never 5xx), and the request
# decoder's fast path against its encoding/json reference.
fuzz:
	$(GO) test -fuzz FuzzRead$$ -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadWrite -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzComputeRequest -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzSessionChanges -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzFastDecode -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzParseText -fuzztime 30s ./internal/metrics/

# Seeded load/conformance baselines against a self-booted cdsd. The
# one-shot run issues 1200 requests across all endpoints and policies;
# the session run streams 1000 delta batches across 50 concurrent
# sessions with every sampled snapshot replayed against an in-process
# oracle session. Both exit nonzero on any mismatch.
load:
	$(GO) run ./cmd/loadgen -self -seed 2026 -n 1200 -workers 8 -conformance -o LOAD_PR4.json
	@echo "wrote LOAD_PR4.json"
	$(GO) run ./cmd/loadgen -self -seed 2026 -sessions 50 -batches 20 -workers 8 \
		-conformance -slo-error-rate 0 -o LOAD_PR7_SESSIONS.json
	@echo "wrote LOAD_PR7_SESSIONS.json"

# Session maintenance benchmarks behind the incremental rule phase
# (DESIGN.md sections 12-13): maintained-vs-scratch delta application at
# N=300, plus the N=1000 sparse scaling sweep whose per-batch cost tracks
# the dirty frontier rather than the host population. Prints the JSON
# summary; it writes no baseline, because BENCH_PR8.json also holds the
# ServerCompute rows that bench-server-check gates on.
bench-sessions:
	$(GO) test -run '^$$' -bench SessionApplyChanges -benchmem -count 5 . | tee bench-sessions.out
	$(GO) run ./cmd/benchjson bench-sessions.out

# Perf regression gate: re-run the session benchmarks once and diff their
# ns/op against the checked-in session baseline; any benchmark more than
# 20% slower fails the target. BENCH_PR7.json is the pre-incremental
# baseline — the gate proves the dirty-frontier phase never regresses
# below it (the N=1000 sweep postdates PR7 and reports as new).
BENCH_BASELINE ?= BENCH_PR7.json
bench-check:
	$(GO) test -run '^$$' -bench SessionApplyChanges -benchmem . | \
		$(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE)

# Serving-path benchmarks: the compute endpoint through the full HTTP
# stack, cold cache / warm cache / cold-with-tracing. Writes the raw
# stream to bench-server.out and a JSON summary to BENCH_PR9.json.
bench-server:
	$(GO) test -run '^$$' -bench ServerCompute -benchmem -count 5 . | tee bench-server.out
	$(GO) run ./cmd/benchjson -o BENCH_PR9.json bench-server.out

# Tracing-overhead regression gate: with tracing disabled (the nil-safe
# no-op path) the compute endpoint must stay within 2% ns/op of the
# pre-tracing ServerCompute baseline folded into BENCH_PR8.json. The
# traced variant postdates the baseline and reports as new. A second
# diff gates allocs/op against BENCH_PR10.json, which locked in the
# pooled-scratch allocation win — the warm path must never creep back
# toward the pre-pooling ~598 allocs/op. Both diffs always run and print
# their verdicts, so a failing ns/op gate cannot hide the allocs/op gate;
# the target fails if the benchmark run or either diff fails.
bench-server-check:
	@$(GO) test -run '^$$' -bench 'ServerCompute/(cold|warm)' -benchmem -count 3 . > bench-server-check.out; \
	bench=$$?; cat bench-server-check.out; \
	ns=pass; $(GO) run ./cmd/benchjson -baseline BENCH_PR8.json -threshold 0.02 bench-server-check.out || ns=FAIL; \
	allocs=pass; $(GO) run ./cmd/benchjson -baseline BENCH_PR10.json -threshold 10 -alloc-threshold 0.10 bench-server-check.out || allocs=FAIL; \
	rm -f bench-server-check.out; \
	echo "bench-server-check: ns/op within 2% of BENCH_PR8.json: $$ns; allocs/op within 10% of BENCH_PR10.json: $$allocs"; \
	test $$bench = 0 && test $$ns = pass && test $$allocs = pass

# Large-N parallel-compute benchmarks: the compute stage
# (ComputeParallel) and the end-to-end scratch pipeline (ComputePipeline,
# BuildParallel + mark + prune) at N=1k/10k/100k x workers=1/4/8, plus
# the ServerCompute endpoint rows whose allocs/op the pooled scratch
# cut. Fixed 5-iteration runs keep the N=100k rows bounded; the JSON
# summary is the BENCH_PR10.json baseline the check target diffs against.
bench-compute:
	$(GO) test -run '^$$' -bench 'ComputeParallel|ComputePipeline|ServerCompute' \
		-benchmem -benchtime 5x -count 3 -timeout 30m . | tee bench-compute.out
	$(GO) run ./cmd/benchjson -o BENCH_PR10.json bench-compute.out

# Parallel-compute regression gate: one pass over the same benchmarks,
# any ns/op more than 20% over BENCH_PR10.json (or allocs/op more than
# 10% over) fails the target.
bench-compute-check:
	$(GO) test -run '^$$' -bench 'ComputeParallel|ComputePipeline|ServerCompute' \
		-benchmem -benchtime 5x -timeout 30m . | \
		$(GO) run ./cmd/benchjson -baseline BENCH_PR10.json -alloc-threshold 0.10

# CPU and allocation profiles of the N=100k end-to-end scratch pipeline,
# for chasing build/mark/prune hotspots. Writes pprof artifacts under
# results/.
profile-compute:
	mkdir -p results
	$(GO) test -run '^$$' -bench 'ComputePipeline/N=100000/workers=1$$' -benchtime 5x \
		-cpuprofile results/compute_cpu.pprof -memprofile results/compute_mem.pprof .
	$(GO) tool pprof -top -nodecount 15 results/compute_cpu.pprof
	@echo "wrote results/compute_cpu.pprof results/compute_mem.pprof"

# Render one traced request end to end: pinned client trace id, server
# stage spans, /debug/traces join, span tree on stdout. The same demo is
# smoke-tested in CI by TestTraceDemo, so this target cannot rot.
trace-demo:
	$(GO) test -run 'TestTraceDemo$$' -v ./internal/server/

# CPU and allocation profiles of the maintained session path, for chasing
# rule-phase hotspots. Writes pprof artifacts under results/.
profile:
	mkdir -p results
	$(GO) test -run '^$$' -bench 'SessionApplyChanges$$/maintained' -benchtime 2000x \
		-cpuprofile results/session_cpu.pprof -memprofile results/session_mem.pprof .
	$(GO) tool pprof -top -nodecount 15 results/session_cpu.pprof
	@echo "wrote results/session_cpu.pprof results/session_mem.pprof"

# Deterministic chaos soak: seeded L7 faults (5xx bursts, resets, latency
# spikes) injected into the client transport, ridden out by the resilient
# client (4 retries > the burst bound of 2), every surviving response
# cross-checked against the in-process oracle. Exits nonzero on any
# conformance mismatch or any request-level error.
chaos:
	$(GO) run ./cmd/loadgen -self -seed 2026 -n 600 -workers 8 -chaos -retries 4 \
		-conformance -slo-error-rate 0 -o CHAOS_PR6.json
	@echo "wrote CHAOS_PR6.json"

clean:
	$(GO) clean ./...
