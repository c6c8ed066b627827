# Verification entry points. `make verify` is the PR gate: the tier-1
# suite (build, vet, test) plus one race-detector pass over ., ./internal/...
# and ./cmd/... with GOMAXPROCS forced to 4, so the concurrent parts — the
# grid engine's cell workers (Runner.RunGrid, sharing one arena and one
# session store), the grid service, which runs each session through them,
# and the CLI tests, which drive multi-worker grids and -retries end to
# end — get real concurrency coverage even on single-CPU boxes (where the
# worker pools would otherwise stay at width 1 and races could hide), plus
# an explicit build/vet/test pass over examples/ so the public
# Scenario/Runner API cannot drift from its documented usage, plus
# cross-GOARCH and purego builds so the arch-gated hash kernel cannot
# silently break the pure-Go fallback other platforms run. Performance is
# gated by the repo benchmark alone (bench/, BENCHMARK.json); the bench*
# targets below are Go benchmarks for PERF.md, not gates, and `make
# bench-mem` and `make bench-cpu` print where one scenario-lockstep run
# allocates its bytes and spends its CPU time.

GO ?= go

# Worker-pool width for `make sweep` (0 = GOMAXPROCS, 1 = sequential).
# Grid results are bit-identical at any setting.
SWEEP_PARALLEL ?= 0

# Session journal for `make sweep`: every completed cell is appended, and
# re-running the same grid resumes instead of restarting.
SWEEP_CHECKPOINT ?= SWEEP.ckpt.json

.PHONY: verify tier1 race examples bench bench-core bench-mem bench-cpu bench-protocol bench-epoch bench-kernel bench-net bench-store bench-serve sweep cover chaos lint serve-e2e crossbuild fuzz

verify: tier1 lint race examples crossbuild

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	GOMAXPROCS=4 $(GO) test -race -count=1 . ./internal/... ./cmd/...

# The examples are the public API's living documentation (including
# examples/progress, the durable-session + progress-sink loop); their
# example tests (external registration through the open registries) must
# keep passing.
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...
	$(GO) test -count=1 ./examples/...

# amd64 (the AVX2 kernel), arm64 (the batched pure-Go kernel every
# non-amd64 build uses), and the purego escape hatch must keep compiling
# no matter which box edits the kernel layer. The kernel is picked from
# the CPU with no switch to override it, so the purego pass is what runs
# the batched kernel end to end on an AVX2 box: it vets and tests the
# hashing package and runs the core tests (TestRunFixedSeedPinned
# included) on that kernel. The windows pass compiles and vets the
# root package's flock-free session-lock fallback (filelock_fallback.go),
# which no unix target builds.
crossbuild:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) vet .
	$(GO) build -tags purego ./...
	$(GO) vet -tags purego ./internal/hashing/
	$(GO) test -tags purego -count=1 ./internal/hashing/
	$(GO) test -tags purego -count=1 ./internal/core/

# Static analysis beyond `go vet`: staticcheck when installed, with a
# loud fallback to a second vet pass so `make verify` never silently
# skips the lint gate on boxes without it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Statement coverage across every package. The recorded PR 5 baseline
# lives in PERF.md ("Coverage baseline"); compare against it before
# trusting a refactor that "didn't lose any tests".
cover:
	$(GO) test -cover ./...

# Amortized per-iteration cost and the budget-scaling sweep (PERF.md).
# The prefix-hash kernel sweep itself is `make bench-kernel`.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMicro|BenchmarkScaling' -benchmem .

# One default scenario run on a reused Runner in the scenario-lockstep
# shape (random 12-party graph, Algorithm A, light random noise) and in
# the scenario-des shape (the same on the virtual-time engine with
# lognormal delays and spikes): ns, bytes and allocs per run. PERF.md
# records the figures.
bench-core:
	$(GO) test -run '^$$' -bench 'BenchmarkRun(Lockstep|DES)$$' -benchmem .

# The allocation profile behind PERF.md's memory figures: a 3 s
# BenchmarkRunLockstep pass with -benchmem and -memprofile, written with
# its test binary to .bench_mem/ (ignored by git), then the top
# allocation sites by bytes allocated.
BENCH_MEM_DIR ?= .bench_mem

bench-mem:
	mkdir -p $(BENCH_MEM_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkRunLockstep$$' -benchmem -benchtime=3s \
		-memprofile $(BENCH_MEM_DIR)/mem.prof -o $(BENCH_MEM_DIR)/mpic.test .
	$(GO) tool pprof -sample_index=alloc_space -top $(BENCH_MEM_DIR)/mpic.test $(BENCH_MEM_DIR)/mem.prof

# The CPU counterpart of bench-mem: a 5 s BenchmarkRunLockstep pass with
# -cpuprofile, written with its test binary to the same ignored
# directory, then the top functions by flat and cumulative CPU time.
# PERF.md's per-function CPU shares come from it.
bench-cpu:
	mkdir -p $(BENCH_MEM_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkRunLockstep$$' -benchtime=5s \
		-cpuprofile $(BENCH_MEM_DIR)/cpu.prof -o $(BENCH_MEM_DIR)/mpic.test .
	$(GO) tool pprof -top $(BENCH_MEM_DIR)/mpic.test $(BENCH_MEM_DIR)/cpu.prof

# The protocol set-up of one run in the scenario-lockstep shape: the
# Random workload's schedule, its chunking at the 5m-bit budget and its
# noiseless reference run, in ns, bytes and allocs per set-up. PERF.md
# records the figures.
bench-protocol:
	$(GO) test -run '^$$' -bench 'BenchmarkProtocolSetup' -benchmem ./internal/protocol/

# The epoch-refresh R-axis sweep behind core.DefaultEpochRefresh: ns per
# iteration as the seed-refresh interval grows from every-iteration
# (≈ quadratic) to once-per-run (≈ never refreshing). PERF.md records
# the trajectory.
bench-epoch:
	$(GO) test -run '^$$' -bench 'BenchmarkEpochRefresh' -benchmem .

# The τ-row sweep kernels head to head (batched, the AVX2 kernel where
# the CPU has it, and the test file's scalar loop as the baseline), called
# directly on pre-materialized rows across τ and transcript sizes — the
# PERF.md kernel micro table.
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelSweep' -benchmem ./internal/hashing/

# One network round on Clique(12) of sink parties: on the lockstep engine,
# and on the virtual-time (DES) engine under the unit model and under
# lognormal delays with rare spikes: ns and allocs per round (allocs must
# stay 0). PERF.md records the figures.
bench-net:
	$(GO) test -run '^$$' -bench 'BenchmarkStep(Timed)?$$' -benchmem ./internal/network/

# The durable session's per-cell store cost: one FileGridStore.Save
# handed only the new cell, as the grid engine calls it, on a session of
# 10, 100 and 1000 cells, in ns and allocs per save (PERF.md records the
# figures; with the append-only journal the 1000-cell cost stays within
# 1.5x of the 10-cell one).
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkFileGridStoreSave' -benchmem -benchtime 300x .

# The grid service's submit-to-result round trip: the serve workload's
# 8-cell spec through Handler on a loopback server (POST, SSE to the
# session frame, GET result) with two submitters, in ns and allocs per
# session, plus the heap each finished session keeps (retained-B/session,
# measured from the 400th to the 1600th session). PERF.md records the
# figures.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeSession' -benchmem -benchtime 1600x ./internal/service/

# A bounded run of each fuzzer: the grid-spec body (decode → Normalize →
# Build), the CLI delay and network-fault strings (parse → wire →
# probe), the hash-mode names (parse → String round trip), the session
# journal decoder (arbitrary bytes → Load, Save, reload), and the
# Reed–Solomon decoder (codes, error patterns and erasure lists →
# Decode). `go test -fuzz` takes one target per run, hence six runs;
# plain `go test` only replays their seed corpora. The journal fuzzer
# writes and fsyncs a file per input, so it runs in /dev/shm where that
# exists: on a disk the fsyncs hold a 20 s pass to a few hundred inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzGridBuild$$' -fuzztime 20s -parallel 2 ./internal/gridspec/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDelay$$' -fuzztime 20s -parallel 2 .
	$(GO) test -run '^$$' -fuzz '^FuzzParseNetFaults$$' -fuzztime 20s -parallel 2 .
	$(GO) test -run '^$$' -fuzz '^FuzzParseHashMode$$' -fuzztime 20s -parallel 2 .
	$(GO) test -run '^$$' -fuzz '^FuzzRSDecode$$' -fuzztime 20s -parallel 2 ./internal/ecc/
	TMPDIR=$$(test -d /dev/shm && echo /dev/shm || echo $${TMPDIR:-/tmp}) \
		$(GO) test -run '^$$' -fuzz '^FuzzJournalLoad$$' -fuzztime 20s -parallel 2 .

# The grid service end to end: submit over HTTP, run on a worker pool,
# stream progress over SSE, resume after a restart mid-grid and after a
# torn journal tail, and refuse bad requests — under the race detector.
serve-e2e:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestService' -v ./internal/service/

# The chaos soaks under the race detector: the registry-cartesian grid as
# a durable parallel session with deterministic injected store faults
# (each aborts its run, and the session resumes from its journal until a
# run finishes, as the CLIs and the service recover), torn checkpoint
# writes, cell panics, and a mid-flight cancellation —
# plus the network soak, where every cell runs on the virtual-time
# engine under jitter, outages, stragglers, and a crash-restart — plus
# the kill soak, where a second process running a durable session is
# SIGKILLed mid-cell and this one resumes it under injected cell panics.
# All must stay bit-identical to a clean sequential run. The soaks run the
# library defaults, so since PR 9 every cell exercises the epoch-refresh
# hash path.
chaos:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestChaos' -v .

# Exercise the streaming grid engine on a small n × scheme × rate grid;
# rows print as cells complete and land in the resumable checkpoint.
# Tune concurrency with SWEEP_PARALLEL=k.
sweep:
	$(GO) run ./cmd/mpicbench -sweep -parallel $(SWEEP_PARALLEL) \
		-sweep-checkpoint $(SWEEP_CHECKPOINT) \
		-sweep-n 4,6 -sweep-schemes A,B \
		-sweep-rates 0,0.001 -trials 2 -sweep-iterfactor 20
