# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race chaos fuzz-smoke vet loc bench bench-smoke lease-sweep profile scaling-smoke fleet fleet-smoke examples mutants

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
# stream, any chunking), and the differential that holds the server's byte
# entry to its chain entry (same reply bytes, same side effects, any
# datagram sequence).
fuzz-smoke:
	$(GO) test -fuzz=FuzzRPCDecode -fuzztime=30s ./internal/rpc
	$(GO) test -fuzz=FuzzRecordScanner -fuzztime=30s ./internal/rpc
	$(GO) test -fuzz=FuzzXDRDecode -fuzztime=30s ./internal/xdr
	$(GO) test -fuzz=FuzzFastVsGeneric -fuzztime=30s ./internal/server

vet:
	$(GO) vet ./...

# Prove the checkers check: plant each known bug of mutants_test.go's table
# (through go test -overlay; the tree is never written) and require its
# test to fail. A surviving mutant or a stale anchor fails the target.
mutants:
	RENONFS_MUTANTS=1 $(GO) test -run '^TestMutants$$' -count=1 -v -timeout 20m .

# Non-test Go lines of the library, the commands and the root package: the
# number a simplification PR reports before and after.
loc:
	@{ find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v _test.go; } | xargs cat | wc -l

# Then the mbuf Append + Free loop at one and two CPUs, counting nothing and
# counting into a registry (not a gate: ns/op on a shared VM is not steady).
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...
	$(GO) test -run '^$$' -bench=AppendFreeParallel -benchmem -cpu 1,2 ./internal/mbuf

# One iteration of every benchmark plus the deterministic regression gates:
# per-call allocation and copy budgets (a LOOKUP through the byte entry
# allocates 1, through the chain entry up to 7), and a leased Create-Delete in simulated time falling
# below 3x the full-consistency time or losing write-RPC parity with the
# no-consistency bound. Timing comparisons belong to
# `bash benchmark/run.sh -compare`, not here. The simulation kernel's budgets
# ride on the first line: a Sleep (parked or not), a queue ping-pong round
# trip, a WaitTimeout (timed out or woken), a contended Resource.Use,
# callbacks due now, a park behind due callbacks and a Cond Wait/Broadcast
# cycle each allocate 0, with its Sleep and queue benchmarks, and so does a
# ChargeCPU; an 8 KB UDP datagram across a simulated link allocates nothing
# (its receiver releases the Datagram), reassembly on recycled state
# allocates nothing, and through a Rig a simulated GETATTR round trip stays
# within 2 allocations (1 measured), an 8 KB READ within 3 and an 8 KB WRITE
# within 4; over simulated TCP a GETATTR stays within 5 and an 8 KB READ
# within 7, and over 1,000 TCP calls a call
# switches into a process at most 3 times with at most 3 events queued per
# connection (TestTCPLoopWork: connections, listener and readers run as
# events, and no wait leaves a stale timeout). The second
# line is the zero-copy gate on real sockets: an 8 KB READ over
# loopback UDP and TCP and an 8 KB WRITE over UDP copy no payload byte
# through mbufs in user space, the batched sendmmsg / TCP writev writers
# allocate nothing per reply, a data RPC served on the reader stays inside
# its allocation budget, a TCP GETATTR round trip allocates nothing (LOOKUP:
# the name string), a READDIR drawing a 9.4 KB reply is served on the shallow
# path over TCP and on the UDP reader alike allocating nothing (memfs copies
# only the window's entries, onto the stack), and record ingest neither
# allocates nor moves a byte per whole record.
bench-smoke:
	$(GO) test -run 'TestAllocBudget|TestTCPLoopWork|TestReadReplyZeroCopy|TestLeaseCreateDeleteGate' -bench=. -benchmem -benchtime 1x . ./internal/sim ./internal/netsim ./internal/ipfrag
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
# if any scenario breaks the exactly-once audit, or if the real-socket run
# prints no ingest-mechanism table or a NaN or Inf.
FLEET_SMOKE = -fleet -fleet-clients 1000 -fleet-shards 8 -fleet-rps 150,300 \
	-dur 2s -fleet-slo p50=250ms,p99=2s,p999=5s,timeouts=0.25
fleet-smoke:
	$(GO) run ./cmd/nfsbench $(FLEET_SMOKE)
	@out=$$($(GO) run ./cmd/nfsbench $(FLEET_SMOKE) -fleet-real); st=$$?; echo "$$out"; \
	test $$st -eq 0 || exit $$st; \
	echo "$$out" | grep -q '^== fleet ingest mechanisms' || { echo 'fleet-smoke: no ingest mechanism table'; exit 1; }; \
	if echo "$$out" | grep -wE 'NaN|Inf'; then exit 1; fi

# Profile the simulator and a real-socket load with pprof; start perf work
# here, the way the paper's tuning started from kernel profiles. The
# simulated half profiles what the benchmark's sim_tables child runs: quick
# passes of all 19 tables on one CPU (GOMAXPROCS=1), one per seed of
# PROFILE_SEEDS, merged so the shares rest on over 1,000 samples (one pass
# is ~130 at 100 Hz). Each pass prints the heap objects it allocated; the
# top functions by cumulative CPU are the merged passes', those by
# allocated objects seed 1991's (that header's total is objects per pass).
# The shares quoted in ROADMAP item 10 and EXPERIMENTS.md come from it. The
# socket half collects the runtime's mutex-contention and blocking profiles
# from the real-socket fleet's load curve (the lock-serialization view) and
# prints its ingest-mechanism table beside them.
PROFILE_EXP ?= all
PROFILE_SEEDS ?= 1991 1 2 3 4 5 6 7 8 9
profile:
	$(GO) build -o nfsbench ./cmd/nfsbench
	@for s in $(PROFILE_SEEDS); do \
		GOMAXPROCS=1 ./nfsbench -exp $(PROFILE_EXP) -quick -seed $$s \
			-cpuprofile cpu.$$s.pprof -memprofile mem.$$s.pprof > /dev/null || exit 1; \
	done
	$(GO) tool pprof -top -cum -nodecount 30 $(foreach s,$(PROFILE_SEEDS),cpu.$(s).pprof)
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 20 mem.$(firstword $(PROFILE_SEEDS)).pprof
	$(GO) run ./cmd/nfsbench -fleet -fleet-real -fleet-scenarios '' \
		-mutexprofile mutex.pprof -blockprofile block.pprof
	@echo "view with: go tool pprof cpu.<seed>.pprof (or mem.<seed>.pprof, mutex.pprof, block.pprof)"
