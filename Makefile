GO ?= go

.PHONY: all build vet lint test perfbench race fuzz fuzz-quick bench bench-quick binaries verify clean

all: verify

## build: compile every package
build:
	$(GO) build ./...

## vet: static analysis (part of the tier-1 flow)
vet:
	$(GO) vet ./...

## lint: gofmt + go vet + the splint invariant suite (detlint, sortlint,
## locklint, ctxlint — see README "Invariants & static analysis"); exits
## non-zero on any unformatted file or splint finding
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/splint ./...

## test: full test suite
test:
	$(GO) test ./...

## perfbench: vet + test the benchmark harness, a separate module that
## `go build ./...` does not reach
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## race: race detector over the concurrent surface (analyzer fan-out, RPC,
## host-agent query executors, sharded record store, event engine, cluster
## service plane, switch agents, the packet simulator, and the root-package
## integration tests) — scoped so the gate stays fast
race:
	$(GO) test -race ./internal/analyzer ./internal/rpc ./internal/hostagent ./internal/store ./internal/eventq ./internal/cluster ./internal/statesync ./internal/switchagent ./internal/netsim ./internal/trace .

## fuzz: run every native fuzz target (package:target pairs below) for
## FUZZTIME each; a crasher lands in the package's testdata/fuzz corpus
FUZZTIME ?= 30s
FUZZ_TARGETS = ./internal/rpc:FuzzHostRounds ./internal/rpc:FuzzRoundAnswers ./internal/trace:FuzzParseRemote
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) "$${t%%:*}"; \
	done

## fuzz-quick: the short fuzz leg of verify, 5 s per target
fuzz-quick:
	$(MAKE) fuzz FUZZTIME=5s

## bench: run the paper-figure benchmark suite with -benchmem, refresh the
## machine-readable perf-trajectory artifact (BENCH_PR5.json; its baseline
## froze the PR 4 numbers) — including the diagnosis-throughput and
## snapshot-bootstrap sweeps — and print the before/after delta
bench:
	scripts/bench.sh

## bench-quick: the inner perf loop — Fig 8 + simulator event rate + the
## state-sync snapshot bootstrap + the indexed cold query + the
## pointer-backend ablation + the metrics scrape and deterministic alert
## storm, one iteration, no artifact refresh; then the layer rungs — the
## round codec (rpc) and cold-segment decode (store) — at 100 iterations
bench-quick:
	$(GO) test -run '^$$' -bench 'Fig8LoadImbalance|SimulatorEventRate|SnapshotBootstrap|ColdQueryIndexed|PointerBackends|MetricsScrape|AlertStorm|TraceOverhead' -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench 'RoundCodec' -benchmem -benchtime 100x ./internal/rpc
	$(GO) test -run '^$$' -bench 'DecodeSegment' -benchmem -benchtime 100x ./internal/store

## binaries: every cmd/ tool and examples/ program must compile
binaries:
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/...
	@set -e; for d in examples/*/; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null "./$$d"; \
	done

## verify: the tier-1 gate — build, lint (gofmt + vet + splint), test,
## perfbench, race, a short fuzz leg, and binary compile checks
verify: build lint test perfbench race fuzz-quick binaries

clean:
	rm -rf bin
	$(GO) clean -testcache
