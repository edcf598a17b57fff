# hhcw — reproduction of "Scalable Composable Workflows in
# Hyper-Heterogeneous Computing Environments" (WORKS @ SC 2023).

GO ?= go

.PHONY: all build vet test test-race e2ebench-test parity cover fuzz chaos sweep bench bench-json bench-json-short profile experiments examples compose clean

all: build vet test test-race chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the sweep worker pool (and all future concurrency) on every
# tier-1 run.
test-race:
	$(GO) test -race ./...

# The end-to-end benchmark is a nested module (e2ebench/go.mod), which the
# root `go test ./...` skips: vet and test it on its own, golden digests
# included, so an API change that breaks the benchmark fails here.
e2ebench-test:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Output parity: build REF and the working tree, run a fixed list of CLI
# invocations (EnTK, pilot, CWS, service and sweep reports, four examples)
# on each and diff their stdout byte for byte. A refactor that claims no
# behaviour change must leave the diff empty. `make parity REF=main` picks the
# ref.
REF ?= HEAD
parity:
	bash scripts/parity.sh $(REF)

# Full-suite coverage profile (atomic mode: the sweep pool is concurrent).
# CI runs this in the test job, uploads coverage.out as an artifact, and the
# total below is the number README quotes.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short fuzz pass — the same lane CI runs non-blocking: the WDL parser, the
# lazily seeded random source against math/rand, then the task manager's
# dispatch against the full-scan reference dispatcher. `go test -fuzz` takes
# one target per call, so the 60 s budget is split between the three.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseWDL -fuzztime 30s ./internal/jaws
	$(GO) test -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 15s ./internal/randx
	$(GO) test -run '^$$' -fuzz FuzzDispatchReplay -fuzztime 15s ./internal/rm

# The §3.5 CWS comparison as a 200-seed distribution on a parallel worker
# pool. Same seeds ⇒ bit-identical table, independent of worker count.
sweep:
	$(GO) run ./cmd/sweeprun -seeds 200

# Chaos smoke: short fault-injected sweeps under each named profile. The
# deterministic failure layer means these are as reproducible as `sweep`.
chaos:
	$(GO) run ./cmd/wfsim -faults mtbf -env k8s -sweep 25 -workers 4
	$(GO) run ./cmd/wfsim -faults storm -env k8s-cws -sweep 25 -workers 4
	$(GO) run ./cmd/sweeprun -faults spot -seeds 25

# One benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Perf-regression gate: run the tracked suite, write BENCH_<timestamp>.json,
# and fail if any gated metric (allocs/op, B/op, domain metrics) regressed
# vs the committed baseline. To refresh the baseline after a deliberate
# change: `go run ./cmd/benchreport -out BENCH_baseline.json` and commit it
# (see docs/bench-schema.md).
bench-json:
	$(GO) run ./cmd/benchreport -baseline BENCH_baseline.json

# Quick validity smoke for CI: reduced workloads, no baseline comparison
# (short and full reports are not comparable), self-consistency only.
bench-json-short:
	$(GO) run ./cmd/benchreport -short -out BENCH_short.json

# Profile the ensemble hot path: the 200-seed sweep with CPU and heap
# profiles. Every cmd/ binary accepts -cpuprofile/-memprofile via the shared
# driver runtime; inspect with `go tool pprof cpu.prof` / `mem.prof`.
profile:
	$(GO) run ./cmd/sweeprun -seeds 200 -cpuprofile cpu.prof -memprofile mem.prof

# Regenerate every experiment's human-readable output.
experiments:
	$(GO) run ./cmd/entkrun
	$(GO) run ./cmd/entkrun -full
	$(GO) run ./cmd/atlasrun
	$(GO) run ./cmd/cwsbench -waste
	$(GO) run ./cmd/jawsrun
	$(GO) run ./cmd/jawsrun -lint
	$(GO) run ./cmd/llmrun
	$(GO) run ./cmd/llmrun -agents -inject
	$(GO) run ./cmd/llmrun -sweep -limit 2000
	$(GO) run ./cmd/sweeprun -seeds 50

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cws_scheduling
	$(GO) run ./examples/exaam_uq
	$(GO) run ./examples/transcriptomics_atlas
	$(GO) run ./examples/llm_compose
	$(GO) run ./examples/jaws_migration
	$(GO) run ./examples/adaptive_uq
	$(GO) run ./examples/composed_pipeline

# The flagship cross-subsystem composition: Atlas salmon pipeline → ExaAM UQ
# ensemble, compiled by the compose layer and run with faults, retry,
# provenance, and a stable fingerprint.
compose:
	$(GO) run ./examples/composed_pipeline

clean:
	$(GO) clean ./...
