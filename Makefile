# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the pinned tool versions here and there in sync.

STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3

.PHONY: all build test race fuzz lint burstlint lint-hotpath lint-report vet-burstlint staticcheck govulncheck golden bench bench-baseline bench-gate

all: build test lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

## fuzz: the native fuzz targets, the same budget CI gives them.
## FuzzRNGMatchesMathRand checks sim.RNG against math/rand's stream.
fuzz:
	go test -run '^$$' -fuzz FuzzRNGMatchesMathRand -fuzztime 20s ./internal/sim

## lint: everything the CI lint job runs.
lint: burstlint staticcheck govulncheck

## burstlint: the repo's own invariant analyzers (see internal/analysis).
burstlint:
	go run ./cmd/burstlint ./...

## lint-hotpath: just the hot-path allocation analyzer, for fast local
## iteration while touching internal/sim, internal/packet, or a queue
## discipline's Enqueue/Dequeue path.
lint-hotpath:
	go run ./cmd/burstlint -analyzers hotpathalloc ./...

## lint-report: the full suite in machine-readable form. CI uploads the
## resulting analysis_report.json so per-analyzer diagnostic and
## suppression counts are comparable across PRs.
lint-report:
	go run ./cmd/burstlint -json ./... > analysis_report.json

## vet-burstlint: the same analyzers through go vet's driver and cache.
vet-burstlint:
	go build -o $(CURDIR)/bin/burstlint ./cmd/burstlint
	go vet -vettool=$(CURDIR)/bin/burstlint ./...

staticcheck:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

govulncheck:
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...

## golden: regenerate the behavior-preservation digest table. Justify any
## diff in review: a changed digest is a changed simulation.
golden:
	go test ./internal/core -run TestGoldenSummaries -update-golden

## bench: run the gated benchmark tiers and aggregate the JSON artifacts
## under results/bench/<short-sha>/ so the perf trajectory is tracked in
## the repo, not just in CI artifact storage.
BENCH_DIR = results/bench/$(shell git rev-parse --short HEAD)
bench:
	go test -bench='Kernel|ExperimentPackets|TransportRoundTrip' -benchtime=100x -benchmem -run '^$$' ./... | tee /tmp/bench_kernel.txt
	go test -bench='ScalingClients' -benchtime=1x -run '^$$' . | tee /tmp/bench_scaling.txt
	go test -bench='BurstBatching' -benchtime=1x -run '^$$' . | tee /tmp/bench_batch.txt
	go test -bench='AQMDisciplines' -benchtime=1x -run '^$$' . | tee /tmp/bench_aqm.txt
	mkdir -p $(BENCH_DIR)
	python3 .github/bench_to_json.py /tmp/bench_kernel.txt $(BENCH_DIR)/BENCH_kernel.json $(shell git rev-parse HEAD)
	python3 .github/bench_to_json.py /tmp/bench_scaling.txt $(BENCH_DIR)/BENCH_scaling.json $(shell git rev-parse HEAD)
	python3 .github/bench_to_json.py /tmp/bench_batch.txt $(BENCH_DIR)/BENCH_batch.json $(shell git rev-parse HEAD)
	python3 .github/bench_to_json.py /tmp/bench_aqm.txt $(BENCH_DIR)/BENCH_aqm.json $(shell git rev-parse HEAD)

## bench-gate: compare the most recent `make bench` output against the
## committed baseline; fails on >10% sim_pkts/s regression.
bench-gate:
	python3 .github/check_bench_regression.py results/bench/baseline/BENCH_scaling.json $(BENCH_DIR)/BENCH_scaling.json
	python3 .github/check_bench_regression.py results/bench/baseline/BENCH_batch.json $(BENCH_DIR)/BENCH_batch.json
	python3 .github/check_bench_regression.py results/bench/baseline/BENCH_aqm.json $(BENCH_DIR)/BENCH_aqm.json

## bench-baseline: promote the current commit's bench run to the gate
## baseline. Commit the diff alongside the change that justifies it.
bench-baseline: bench
	cp $(BENCH_DIR)/BENCH_scaling.json $(BENCH_DIR)/BENCH_batch.json $(BENCH_DIR)/BENCH_aqm.json results/bench/baseline/
