GO ?= go
FUZZTIME ?= 30s

.PHONY: all check fmt vet vet-json build test race bench bench-micro bench-contended bench-conformance bench-gate baseline smoke fuzz chaos record-corpus clean FORCE

all: check

# The CI gate: formatting, static checks, build, and the race-enabled suite.
check: fmt vet build race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: the standard go vet suite, then adsmvet — the ADSM
# multichecker (allowcheck, lockorder, modecheck, noalloc, statecase;
# see docs/static-analysis.md) — driven through
# `go vet -vettool` so every package, its _test.go files, and the cmd/
# mains are analyzed, and results land in the build cache (keyed on the
# tool's -V=full version, which folds in the Go toolchain version, so a
# Go upgrade invalidates them along with the rebuilt tool). Any
# diagnostic fails the build. `make vet-json` writes the machine-readable
# report CI archives as an artifact.
vet: bin/adsmvet
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath bin/adsmvet) ./...

vet-json: bin/adsmvet
	./bin/adsmvet -json ./... > adsmvet.json || true
	@echo wrote adsmvet.json

bin/adsmvet: FORCE
	$(GO) build -o bin/adsmvet ./cmd/adsmvet

FORCE:

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Hot-path microbenchmarks (fault service, span batching, eviction,
# registry lookup), repeated so benchstat can tell noise from signal.
bench-micro:
	$(GO) test -bench 'BenchmarkFault|BenchmarkStreamingFaults|BenchmarkRollingEvict|BenchmarkBlockLookup' \
		-benchmem -benchtime=100x -count=3 -run '^$$' ./internal/benchgate ./internal/core

# The contended-lane sweep: N host lanes faulting on disjoint objects
# through the sharded registry/MMU. Run without -race (the detector's
# overhead drowns the wall-clock signal; the -race interleaving coverage
# lives in bench-conformance).
bench-contended:
	$(GO) test -bench 'BenchmarkContendedFaults' \
		-benchmem -benchtime=100x -count=3 -run '^$$' ./internal/benchgate

# The conformance half of the bench gate, under the race detector:
# batched runs byte-identical to the unbatched oracle on every workload,
# replay round trip, the sharded registry/MMU lane stress, and lane
# determinism (each lane's op stream and the virtual time independent of
# scheduling), and the op ring under concurrent writers.
bench-conformance:
	$(GO) test -race -count=1 -run 'Batching' ./internal/workloads
	$(GO) test -race -count=1 \
		-run 'TestRegistryConcurrentLanes|TestIntervalArray|TestRegShardMask|TestMMUConcurrentLanes|SpanFaultBatching' \
		./internal/core ./internal/hostmmu
	$(GO) test -race -count=1 -run 'TestInLanesDeterministic' ./gmac
	$(GO) test -race -count=50 -run 'TestRingConcurrent|TestRingKeepsNewestOps' ./internal/oplog

# The benchmark-regression gate: re-run the micro + figure suites and
# compare against the committed baseline (see docs/performance.md).
bench-gate:
	$(GO) run ./cmd/gmacbench -small -benchtime 0.3s -check BENCH_PR9.json

# Refresh the committed baseline after an intentional model change.
baseline:
	$(GO) run ./cmd/gmacbench -small -benchtime 0.5s -baseline BENCH_PR9.json

# Fast end-to-end sanity: one small figure run with the JSON summary, and
# the host-lanes CLI path (two workers on two lanes).
smoke:
	$(GO) run ./cmd/gmacbench -small -json /tmp/gmacbench-smoke.json fig8
	$(GO) run ./cmd/gmacbench -small -hostthreads 2

# Native fuzzing of the registry arrays, the manager op stream, the oplog
# wire decoder, and the race analyser, FUZZTIME per target (see
# docs/testing.md). The decoder and race-check fuzzers seed from the
# recorded corpus in testdata/corpus/.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRegistry$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzManagerOps$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOpLogDecode$$' -fuzztime $(FUZZTIME) ./internal/oplog
	$(GO) test -run '^$$' -fuzz '^FuzzRaceCheck$$' -fuzztime $(FUZZTIME) ./internal/racecheck

# Re-record the workload op-stream corpus (testdata/corpus/*.oplog): one
# stream per (small Parboil workload, GMAC protocol). The chaos suite
# replays these under fault schedules, and the oplog decoder fuzzer seeds
# from them. Regenerate after changing the wire format or the workloads,
# and commit the result.
record-corpus:
	$(GO) run ./cmd/gmacbench -small -record testdata/corpus

# The chaos conformance suite under the race detector: fault-schedule
# matrix, replay determinism, degraded-mode recovery, I/O fault paths.
chaos:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 -run 'Chaos|Fault|Inject|DeviceLost|Degrade' ./...

clean:
	$(GO) clean ./...
	rm -rf bin
