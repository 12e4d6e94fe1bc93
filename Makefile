# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race chaos fuzz-smoke vet loc bench bench-smoke profile scaling-smoke fleet fleet-smoke examples

build:
	$(GO) build ./...

# Run every program under examples/ to completion; a non-zero exit fails the
# target. `go build` only compiles them, and they drive the Rig and the
# simulated network's tracer the way a user would.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Fast tier: every package's unit/integration tests plus a 2-seed chaos
# smoke (the -short sweep).
test:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

# Full chaos tier: the complete seed x transport x topology sweep
# (>= 100 combinations) with invariant auditing, plus determinism replays.
# A failure prints the fault schedule and the exact one-command repro.
chaos:
	$(GO) test -race -run 'TestChaos' -v .

# 30-second native-fuzz smokes: the two network-facing decoders, the
# in-place record scanner against a whole-stream reference splitter (any
# stream, any chunking), and the differential that holds the shallow
# dispatch path to the generic one (same reply bytes, same side effects,
# any datagram sequence).
fuzz-smoke:
	$(GO) test -fuzz=FuzzRPCDecode -fuzztime=30s ./internal/rpc
	$(GO) test -fuzz=FuzzRecordScanner -fuzztime=30s ./internal/rpc
	$(GO) test -fuzz=FuzzXDRDecode -fuzztime=30s ./internal/xdr
	$(GO) test -fuzz=FuzzFastVsGeneric -fuzztime=30s ./internal/server

vet:
	$(GO) vet ./...

# Non-test Go lines of the library, the commands and the root package: the
# number a simplification PR reports before and after.
loc:
	@{ find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v _test.go; } | xargs cat | wc -l

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...

# One iteration of every benchmark plus the deterministic regression gates:
# per-call allocation and copy budgets (the shallow LOOKUP allocates 1, the
# generic one up to 8), and a leased Create-Delete in simulated time falling
# below 3x the full-consistency time or losing write-RPC parity with the
# no-consistency bound. Timing comparisons belong to
# `bash benchmark/run.sh -compare`, not here. The simulation kernel's budgets
# ride on the first line: a Sleep (parked or not), a queue ping-pong round
# trip, a RecvTimeout (timed out or woken), a contended Resource.Use,
# callbacks due now, a park behind due callbacks and a Cond Wait/Broadcast
# cycle each allocate 0, with its Sleep and queue benchmarks, and so does a
# ChargeCPU to a bucket its node has seen; an 8 KB UDP datagram across a
# simulated link allocates only its Datagram, reassembly on recycled state
# allocates nothing, and a simulated GETATTR round trip through a Rig stays
# within 9 allocations (7 measured). The second
# line is the zero-copy gate on real sockets: an 8 KB READ over
# loopback UDP and TCP and an 8 KB WRITE over UDP copy no payload byte
# through mbufs in user space, the batched sendmmsg / TCP writev writers
# allocate nothing per reply, a data RPC served on the reader stays inside
# its allocation budget, a TCP GETATTR round trip allocates nothing (LOOKUP:
# the name string), and record ingest neither allocates nor moves a byte per
# whole record.
bench-smoke:
	$(GO) test -run 'TestAllocBudget|TestReadReplyZeroCopy|TestLeaseCreateDeleteGate' -bench=. -benchmem -benchtime 1x . ./internal/sim ./internal/netsim ./internal/ipfrag
	$(GO) test -run 'TestRealSocketReadZeroCopy|TestRealSocketWriteZeroCopy|TestAllocBudget' -v ./internal/nfsnet ./internal/rpc

# The lease-coherence sweep: the two-client close-to-open model, the
# randomized-IO model under the lease personality, the concurrent
# callback-storm race test, and the lease chaos sweep (every UDP
# transport/topology combo under seeded fault schedules, verified by the
# invariant auditor).
lease-sweep:
	$(GO) test -race -run 'TestLeaseCloseToOpenModel|TestRandomizedIOAgainstModel' ./internal/client
	$(GO) test -race -run 'TestLeaseCallbackStormRace|TestLeaseWorkloadCleanUnderAuditor' ./internal/server
	$(GO) test -run 'TestChaosLeaseSweep' .

# The CI multicore gate: measures both ingest configurations — readers=1
# (legacy baseline, reported) and readers=GOMAXPROCS (sharded, gated) —
# printing the per-stage p99 table for each. Fails if the sharded config's
# 4-client throughput < 2.5x 1-client, and (with RENONFS_SCALING_REQUIRE=1,
# as CI sets) fails rather than skips on a runner with fewer than 4 cores.
scaling-smoke:
	RENONFS_SCALING=1 $(GO) test -run TestScalingSmoke -v ./internal/nfsnet

# Open-loop fleet rig (DESIGN.md §10): 10k simulated mounts sweeping
# offered RPS for the latency-vs-load curve, then the hostile scenario
# scripts (flash crowd, remount herd, retransmit storm) under the strict
# exactly-once auditor. Prints the curve and the scenario table; audit
# violations fail.
fleet:
	$(GO) run ./cmd/nfsbench -fleet -dur 3s

# CI-sized fleet run: 1k clients for 2s, once on the simulator and once
# over real loopback sockets (-fleet-real, ~15 s) — exercises the SLO
# parser, both curve and scenario paths on both engines, and exits nonzero
# if any scenario breaks the exactly-once audit.
FLEET_SMOKE = -fleet -fleet-clients 1000 -fleet-shards 8 -fleet-rps 150,300 \
	-dur 2s -fleet-slo p50=250ms,p99=2s,p999=5s,timeouts=0.25
fleet-smoke:
	$(GO) run ./cmd/nfsbench $(FLEET_SMOKE)
	$(GO) run ./cmd/nfsbench $(FLEET_SMOKE) -fleet-real

# Profile the simulator and a real-socket load with pprof; start perf work
# here, the way the paper's tuning started from kernel profiles. The
# simulated half profiles the seed-1991 quick pass of all 19 tables and
# prints its top functions by cumulative CPU and by allocated objects (the
# second header's total is the objects per pass); the shares quoted in
# ROADMAP item 10 and EXPERIMENTS.md come from it. The socket half collects
# the runtime's mutex-contention and blocking profiles from a 4-client load,
# the lock-serialization view.
PROFILE_EXP ?= all
profile:
	$(GO) run ./cmd/nfsbench -exp $(PROFILE_EXP) -quick -seed 1991 \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -cum -nodecount 30 cpu.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 20 mem.pprof
	$(GO) run ./cmd/nfsbench -clients 4 -dur 2s \
		-mutexprofile mutex.pprof -blockprofile block.pprof -trace trace.json
	@echo "view with: go tool pprof cpu.pprof (or mem.pprof, mutex.pprof, block.pprof)"
	@echo "open trace.json at chrome://tracing"
