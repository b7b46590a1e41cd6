# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the pinned tool versions here and there in sync.

STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3

.PHONY: all build test race fuzz shard-smoke results-check lint burstlint lint-hotpath lint-report vet-burstlint staticcheck govulncheck golden bench bench-baseline bench-gate

all: build test lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

## fuzz: the native fuzz targets, 20 s each; CI runs this target.
## -fuzzminimizetime 1s caps the minimization of each new input, which at
## its 60 s default can take most of a 20 s budget.
## FuzzRNGMatchesMathRand checks sim.RNG against math/rand's stream;
## FuzzTimerMatchesModel checks sim.Timer's Reset/Stop/expiry against a
## one-deadline reference model; FuzzSchedulerMatchesModel checks the
## event kernel's At/AtCall/Cancel/Step/Run against a list sorted by
## (time, ordinal); FuzzParseSpec checks that queue specs
## round-trip through their canonical string and that building one never
## panics; FuzzJSONL checks that every line the JSONL telemetry sink
## writes decodes as JSON; FuzzCSV checks that encoding/csv reads the CSV
## sink's header and rows back field for field;
## FuzzSolveREDMatchesReference checks that the screened RED closure stays
## bit-identical to the every-step-dense reference; FuzzNewConfig checks
## that every config NewConfig accepts runs 100 ms without panicking;
## FuzzLinkPipelineMatchesPerEvent checks a serialization-pipelined link
## against the per-event link on random admissions and horizons.
fuzz:
	go test -run '^$$' -fuzz FuzzRNGMatchesMathRand -fuzztime 20s -fuzzminimizetime 1s ./internal/sim
	go test -run '^$$' -fuzz FuzzTimerMatchesModel -fuzztime 20s -fuzzminimizetime 1s ./internal/sim
	go test -run '^$$' -fuzz FuzzSchedulerMatchesModel -fuzztime 20s -fuzzminimizetime 1s ./internal/sim
	go test -run '^$$' -fuzz FuzzParseSpec -fuzztime 20s -fuzzminimizetime 1s ./internal/queue
	go test -run '^$$' -fuzz FuzzSolveREDMatchesReference -fuzztime 20s -fuzzminimizetime 1s ./internal/meanfield
	go test -run '^$$' -fuzz FuzzJSONL -fuzztime 20s -fuzzminimizetime 1s ./internal/telemetry
	go test -run '^$$' -fuzz FuzzCSV -fuzztime 20s -fuzzminimizetime 1s ./internal/telemetry
	go test -run '^$$' -fuzz FuzzNewConfig -fuzztime 20s -fuzzminimizetime 1s ./internal/core
	go test -run '^$$' -fuzz FuzzLinkPipelineMatchesPerEvent -fuzztime 20s -fuzzminimizetime 1s ./internal/link

## shard-smoke: run the parking-lot example serially and at 4 shards and
## diff both tables against the committed examples/parkinglot/testdata/
## table.txt, so a change that moves both runs alike fails too. It covers
## Vegas and DRR over 60 s, beyond the 2 s Reno golden rows. Then diff a
## dumbbell burstsim summary (CoDel, 2000 clients) at 0, 2 and 3 shards:
## 2 shards split the clients between the gateway's shard and the other,
## and with 3 shards on two cores the window barrier takes its park path.
SMOKE_DUMBBELL = -clients 2000 -mean-interval 500ms -queue codel -duration 20s -json
shard-smoke:
	@tmp=$$(mktemp -d); \
	go run ./examples/parkinglot -shards 0 > $$tmp/serial.txt && \
	go run ./examples/parkinglot -shards 4 > $$tmp/sharded.txt && \
	diff examples/parkinglot/testdata/table.txt $$tmp/serial.txt && \
	diff examples/parkinglot/testdata/table.txt $$tmp/sharded.txt && \
	go build -o $$tmp/burstsim ./cmd/burstsim && \
	$$tmp/burstsim $(SMOKE_DUMBBELL) -shards 0 > $$tmp/dumbbell0.json && \
	$$tmp/burstsim $(SMOKE_DUMBBELL) -shards 2 > $$tmp/dumbbell2.json && \
	$$tmp/burstsim $(SMOKE_DUMBBELL) -shards 3 > $$tmp/dumbbell3.json && \
	diff $$tmp/dumbbell0.json $$tmp/dumbbell2.json && \
	diff $$tmp/dumbbell0.json $$tmp/dumbbell3.json; \
	status=$$?; rm -rf $$tmp; exit $$status

## results-check: regenerate the committed figure series (results/*.csv,
## Figures 2, 3, 4 and 13) and the eight window traces (results/traces,
## Figures 5-12) into a temp dir and diff them against the committed
## files. A diff means a simulation change left the artifacts stale:
## regenerate them with the same commands. About 45 s on two cores.
TRACE_RUNS = reno:20 reno:30 reno:38 reno:39 reno:60 vegas:20 vegas:30 vegas:60
results-check:
	@tmp=$$(mktemp -d); mkdir -p $$tmp/traces; \
	status=0; \
	go build -o $$tmp/burstsweep ./cmd/burstsweep && \
	go build -o $$tmp/cwndtrace ./cmd/cwndtrace && \
	$$tmp/burstsweep -all -cache=false -out $$tmp 2>/dev/null || status=1; \
	for run in $(TRACE_RUNS); do \
		[ $$status -eq 0 ] || break; \
		p=$${run%%:*}; n=$${run##*:}; \
		$$tmp/cwndtrace -proto $$p -clients $$n > $$tmp/traces/fig_$${p}_$$n.csv || status=1; \
	done; \
	if [ $$status -eq 0 ]; then \
		for f in results/*.csv results/traces/*.csv; do \
			diff -q $$f $$tmp/$${f#results/} || status=1; \
		done; \
	fi; \
	rm -rf $$tmp; exit $$status

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
