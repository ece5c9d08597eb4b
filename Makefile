# Development gate for this repository. `make check` is the tier-1+ gate a
# change must pass before merging: vet, build, the project's own static
# analyzers (wblint), the full test suite under the race detector (which
# also exercises the serial-vs-parallel equivalence properties), a short
# fuzz smoke over the decoder and message-framing fuzz targets, the
# benchmark module's vet and tests, the command-line tools end to end on a
# pipe, the examples' output against their goldens, and a one-pass run of
# the scheduling stress matrix.

GO ?= go

.PHONY: all build vet test lint race fuzz bench bench-stream bench-observe bench-wire metrics-golden chaos faults-golden serve chaos-serve bench-module cli examples stress check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project-specific static analysis: determinism, float comparisons, unit
# discipline, stream-state bounds and hot-path allocations, each followed
# across function boundaries where it matters.
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
	$(GO) test -fuzz=FuzzReadSeries -fuzztime=10s ./internal/csi/
	$(GO) test -fuzz=FuzzConditionTwoPass -fuzztime=10s ./internal/dsp/

# Package microbenchmarks (decode stages, streaming, channel evaluation,
# wire parse, ...). The figure tables are timed by `wbbench -quick`
# (`-compare` for serial vs parallel) and by the wbperf sim-sweep workload.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

# Streaming decode contract: BenchmarkStream* report the per-push and
# per-stream cost, BenchmarkDecodeCSI and BenchmarkDecodeLongRange a whole
# batch decode (the presized frame arena plus its close),
# BenchmarkFrameClose the frame-closing push alone (CSI and long range)
# and BenchmarkDetectAck one ACK detection, with -benchmem, and the same
# package run re-asserts TestStreamPushSteadyStateAllocs (steady-state
# Push must not allocate), TestFrameCloseAllocs (the frame close
# allocates at most 7 times, and no more often as the channel count
# grows), TestDetectAckAllocs (an ACK detection's allocation count must
# not grow with the trace) and the frame arena's layout tests, TestArena*
# (no lane stride is a multiple of 4 KiB, a pushed stream sizes itself
# for an ordinary frame in at most two slabs, and lanes hold what was
# pushed through every growth), TestBatchArenaSizedOnce (a batch decode
# and a preamble window take one slab and never grow it) and TestStash*
# (the slabs' and scratch's free list hands an item to any goroutine,
# frees what sits unused through a GC cycle, and allocates nothing once
# grown). The frame close fans its lanes out over GOMAXPROCS, so
# everything runs at -cpu 1 (the serial kernel) and 2. The allocation
# tests are skipped under -race, so this plain-build run is the gate.
bench-stream:
	$(GO) test -cpu 1,2 -bench 'BenchmarkStream|BenchmarkDecodeCSI$$|BenchmarkDecodeLongRange|BenchmarkFrameClose|BenchmarkDetectAck' -benchmem -run 'TestStreamPushSteadyStateAllocs|TestFrameCloseAllocs|TestDetectAckAllocs|TestArena|TestBatchArenaSizedOnce|TestStash' ./internal/uplink/

# Simulation fixed-cost contract: BenchmarkObserve reports one packet's
# 3x30 composite channel, BenchmarkAdvance the same channel moved on
# without being evaluated (a capture outside the frame),
# BenchmarkCircuitStep one envelope sample through the tag's receiver
# circuit, BenchmarkEngineSchedule one event's schedule and dispatch,
# BenchmarkMeasure one fresh 3x30 CSI report, BenchmarkMeasureInto one
# written into a reused report (as the figure trials measure) and
# BenchmarkSkipInto that report's draws made without computing it, all
# with -benchmem. TestObserveSteadyStateAllocs asserts that Observe into
# a reused buffer allocates nothing, TestAdvanceAllocs that Advance
# allocates nothing, TestScheduleSteadyStateAllocs that a warmed schedule
# and dispatch of a pre-built closure allocates nothing, TestMeasureAllocs
# that a fresh 3x30 report allocates at most twice (row headers and one
# slab), TestMeasureIntoAllocs and TestSkipIntoAllocs that a reused one
# allocates nothing, and TestContentionRoundAllocs that a CSMA/CA round
# allocates nothing (frames are values in the station queues, each
# listener gets a copy of the Transmission, and a failed frame is retried
# in place), TestTrafficSteadyStateAllocs that a warm medium carrying CBR,
# Poisson and TCP traffic allocates nothing per delivered frame, its
# queues compacting in place, TestDecoderOnEdgeAllocs that the tag's
# preamble detector allocates nothing per comparator edge, and
# TestStreamedCaptureAllocs that a system whose
# every consumer streams (core.System.StreamTo) adds no allocation per
# capture: what its captures add over the same traffic uncaptured does
# not grow with twice as many of them. TestDownlinkWindowAllocs asserts
# that a warm system decodes a downlink window twice as long with as many
# allocations and bytes (the envelope, comparator and edge rows are the
# system's), and TestQueryHorizonAllocs that a clean RunQuery allocates
# no more over twice its retry horizon (the transmission log stops with
# the transaction's windows). The tests are skipped under -race, so this
# plain-build run is the gate.
bench-observe:
	$(GO) test -bench 'BenchmarkObserve|BenchmarkAdvance|BenchmarkCircuitStep|BenchmarkEngineSchedule|BenchmarkMeasure|BenchmarkSkipInto' -benchmem -run 'TestObserveSteadyStateAllocs|TestAdvanceAllocs|TestScheduleSteadyStateAllocs|TestMeasureAllocs|TestMeasureIntoAllocs|TestSkipIntoAllocs|TestContentionRoundAllocs|TestTrafficSteadyStateAllocs|TestDecoderOnEdgeAllocs|TestStreamedCaptureAllocs|TestDownlinkWindowAllocs|TestQueryHorizonAllocs' ./internal/radio/ ./internal/tag/ ./internal/sim/ ./internal/csi/ ./internal/wifi/ ./internal/core/

# Wire and session contract: BenchmarkParseMeasurement reports one 3x30
# CSI m line and one 3x1 RSSI m line, each parsed over and over, and
# 1024 distinct 3x30 lines in turn (csi3x30-distinct, which the branch
# predictor cannot learn), with -benchmem. BenchmarkServeLines reports
# ns/line for one session's hello, m lines and flush sent through
# Server.ServeTCP over loopback and read back to the done line, at 3x1
# RSSI and 3x30 CSI (tcp), beside a plain StreamDecoder.Push of the same
# series (decode); the tcp figure less the parse and the decode is the
# connection and the hand-off from reader to worker.
# TestParseMeasurementAllocs asserts that parsing into a measurement of
# the line's shape allocates nothing, on the decimal fast path and on the
# strconv fallback. TestSessionCycleAllocs asserts that an Open, Push,
# Finish, Result cycle allocates as often with 1024 slots as with 16 (the
# slot ring is pooled), and TestLineReaderAllocs that taking and
# returning a connection's line reader allocates nothing. The tests are
# skipped under -race, so this plain-build run is the gate.
bench-wire:
	$(GO) test -bench 'BenchmarkParseMeasurement|BenchmarkServeLines' -benchmem -run 'TestParseMeasurementAllocs|TestSessionCycleAllocs|TestLineReaderAllocs' ./internal/serve/

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
# byte at every -workers value, and the quick sweep must finish and
# render its metrics under the profiles that starve the reader of
# traffic (stalls, wire-flaky, bursty, wire-partition). Regenerate an
# intentional change with
# `go test ./internal/eval/ -run TestFaultsGolden -update`.
faults-golden:
	$(GO) test ./internal/eval/ -run 'TestFaultsGolden|TestFaultsWorkerInvariance|TestStarvingFaultsFinishSweep'

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

# CLI pipe gate: the real commands on a real pipe. wbtrace's default trace
# piped into wbdecode (the CSI half, the RSSI half, and -follow) must
# decode the alternating 300-bit payload with a ground-truth BER of
# 0/300, and piped into wbload must come back byte-identical from 8
# self-hosted sessions. See scripts/cli.sh.
cli:
	sh scripts/cli.sh $(GO)

# Examples gate: each program under examples/ is seeded, so its standard
# output must match examples/<name>/stdout.golden byte for byte. See
# scripts/examples.sh for how to regenerate a golden after an intended
# change.
examples:
	sh scripts/examples.sh $(GO)

# Scheduling stress gate: the serving stack, the eval worker-invariance
# properties, the parallel trial engine and lane split, the frame close's
# core-count invariance, and the streaming determinism claims (core's
# StreamTo-vs-twin tests, eval's StreamEquivalence) under -race at
# GOMAXPROCS 1, 2 and 8, with -v off and on. Each suite runs at -count=$(STRESS_COUNT) or at its floor
# in scripts/stress.sh, whichever is larger (internal/parallel 300, the
# serving stack 5, the rest 1). Every run executes; the failures are
# listed together at the end and fail the target. `make check` runs the
# floors (STRESS_COUNT=1); run it longer with e.g. `make stress
# STRESS_COUNT=50`.
STRESS_COUNT = 10

stress:
	sh scripts/stress.sh $(STRESS_COUNT) $(GO)

check: vet build lint race fuzz bench-stream bench-observe bench-wire metrics-golden chaos faults-golden serve chaos-serve bench-module cli examples
	$(MAKE) stress STRESS_COUNT=1
