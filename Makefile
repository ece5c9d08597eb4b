# Development gate for this repository. `make check` is the tier-1+ gate a
# change must pass before merging: vet, build, the project's own static
# analyzers (wblint), the full test suite under the race detector (which
# also exercises the serial-vs-parallel equivalence properties), a short
# fuzz smoke over the decoder and message-framing fuzz targets, the
# benchmark module's vet and tests, and a one-pass run of the scheduling
# stress matrix.

GO ?= go

.PHONY: all build vet test lint race fuzz bench bench-stream bench-observe bench-wire metrics-golden chaos faults-golden serve chaos-serve bench-module stress check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project-specific static analysis: determinism, pool hygiene, float
# comparisons, unit discipline, stream-state bounds and hot-path
# allocations, each followed across function boundaries where it matters.
# `wblint -json ./...` emits the findings machine-readably; see README
# "Static gates" for the codes.
lint:
	$(GO) run ./cmd/wblint ./...

race:
	$(GO) test -race ./...

# Ten seconds per target catches shallow panics cheaply; explore deeper
# with e.g. `go test -fuzz=FuzzDecodeCSI -fuzztime=5m ./internal/uplink/`.
fuzz:
	$(GO) test -fuzz=FuzzDecodeCSI -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzDecodeLongRange -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzParsePayload -fuzztime=10s ./internal/downlink/
	$(GO) test -fuzz=FuzzMessageRoundTrip -fuzztime=10s ./internal/downlink/
	$(GO) test -fuzz=FuzzScheduleCodec -fuzztime=10s ./internal/faults/
	$(GO) test -fuzz=FuzzStreamPush -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzWireProtocol -fuzztime=10s ./internal/serve/
	$(GO) test -fuzz=FuzzConditionTwoPass -fuzztime=10s ./internal/dsp/

# Package microbenchmarks (decode stages, streaming, channel evaluation,
# wire parse, ...). The figure tables are timed by `wbbench -quick`
# (`-compare` for serial vs parallel) and by the wbperf sim-sweep workload.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

# Streaming decode contract: BenchmarkStream* report the per-push and
# per-stream cost, BenchmarkFrameClose the frame-closing push alone (CSI
# and long range) and BenchmarkDetectAck one ACK detection, with
# -benchmem, and the same package run re-asserts
# TestStreamPushSteadyStateAllocs (steady-state Push must not allocate),
# TestFrameCloseAllocs (the frame close's allocation count must not grow
# with the channel count) and TestDetectAckAllocs (an ACK detection's
# allocation count must not grow with the trace). The tests are skipped
# under -race, so this plain-build run is the gate.
bench-stream:
	$(GO) test -bench 'BenchmarkStream|BenchmarkFrameClose|BenchmarkDetectAck' -benchmem -run 'TestStreamPushSteadyStateAllocs|TestFrameCloseAllocs|TestDetectAckAllocs' ./internal/uplink/

# Channel evaluation contract: BenchmarkObserve reports one packet's 3x30
# composite channel with -benchmem, and TestObserveSteadyStateAllocs
# asserts that Observe into a reused buffer allocates nothing. The test is
# skipped under -race, so this plain-build run is the gate.
bench-observe:
	$(GO) test -bench 'BenchmarkObserve' -benchmem -run 'TestObserveSteadyStateAllocs' ./internal/radio/

# Wire parse contract: BenchmarkParseMeasurement reports one 3x30 CSI m
# line and one 3x1 RSSI m line with -benchmem, and
# TestParseMeasurementAllocs asserts that parsing into a measurement of
# the line's shape allocates nothing, on the decimal fast path and on the
# strconv fallback. The test is skipped under -race, so this plain-build
# run is the gate.
bench-wire:
	$(GO) test -bench 'BenchmarkParseMeasurement' -benchmem -run 'TestParseMeasurementAllocs' ./internal/serve/

# Pins the observability contract: the aggregated pipeline metrics from an
# instrumented sweep must match testdata/metrics_golden.json byte for byte
# and be identical at every -workers value. Regenerate after an intentional
# instrumentation change with `go test ./internal/eval/ -run TestMetricsGolden -update`.
metrics-golden:
	$(GO) test ./internal/eval/ -run 'TestMetricsGolden|TestMetricsWorkerInvariance'

# Chaos suite: every built-in fault profile driven through the real uplink,
# downlink and transaction pipelines under the race detector, plus the
# backoff/ARF behaviour under injected loss. See README "Fault injection".
chaos:
	$(GO) test -race ./internal/faults/... ./internal/core/... ./internal/wifi/...

# Pins the fault-injection observability contract (wbbench -faults):
# faulted-sweep metrics must match testdata/faults_golden.json byte for
# byte at every -workers value. Regenerate an intentional change with
# `go test ./internal/eval/ -run TestFaultsGolden -update`.
faults-golden:
	$(GO) test ./internal/eval/ -run 'TestFaultsGolden|TestFaultsWorkerInvariance'

# Serving-layer concurrency gate, always run fresh (-count=1): 64
# concurrent TCP sessions byte-identical to batch decode, overload
# rejection, poison isolation, drain under load — all race-enabled —
# plus the wbserved drain loop and the wbload replay-equivalence client.
# See README "Serving" and DESIGN.md §12.
serve:
	$(GO) test -race -count=1 ./internal/serve/ ./cmd/wbserved/ ./cmd/wbload/

# Wire-level chaos gate, race-enabled and always fresh: the fault-injecting
# TCP proxy's compile-once determinism contract, and the wbload chaos runs —
# resume-equals-batch under wire-flaky at 1 and 8 workers, byte-identical
# -metrics snapshots for the same (seed, spec, trace). See EXPERIMENTS.md
# "Chaos replay".
chaos-serve:
	$(GO) test -race -count=1 ./internal/serve/chaosproxy/
	$(GO) test -race -count=10 -run 'TestChaos' ./cmd/wbload/

# The benchmark harness (bench/wbperf) is its own module, so the root
# `go test ./...` skips it; vet and test it here so a library API change
# that breaks it fails the gate instead of the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Scheduling stress gate: the serving stack and the eval worker-invariance
# properties under -race -count=$(STRESS_COUNT) at GOMAXPROCS 1, 2 and 8,
# with -v off and on. Every run executes; the failures are listed together
# at the end and fail the target. `make check` runs one pass
# (STRESS_COUNT=1); run it longer with e.g. `make stress STRESS_COUNT=50`.
STRESS_COUNT = 10

stress:
	sh scripts/stress.sh $(STRESS_COUNT) $(GO)

check: vet build lint race fuzz bench-stream bench-observe bench-wire metrics-golden chaos faults-golden serve chaos-serve bench-module
	$(MAKE) stress STRESS_COUNT=1
