GO ?= go

.PHONY: build test fmt-check vet test-race fuzz check bench bench-json bench-json-out

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails listing every Go file gofmt would change (dot directories such
# as .git and the benchmark build directory are skipped).
fmt-check:
	@out=$$(find . -name '*.go' -not -path './.*/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# The arm64 vet and 386 build keep the portable matmul kernel (built
# wherever the amd64 assembly is not) compiling; vet on amd64 also runs
# asmdecl over the assembly.
vet: fmt-check
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# The whole suite under the race detector (the planner runs a worker
# pool and the serve executor rotates workers over pools; -race keeps
# both honest). The explicit -timeout raises Go's 10-minute per-package
# default: the experiments package regenerates every paper table and can
# exceed it under -race on small CI machines. Four packages get an
# explicit second pass with -count=2, which shakes out order-dependent
# state, so each holds up under the race detector even if the
# full-suite invocation is later narrowed: the transport chaos
# fault-matrix suite (skipped under -short) and its reconnect/replay
# paths; the maintenance orchestrator, whose per-domain goroutines share
# one fleet state and whose migration e2e replays token logs through a
# chaos proxy; the telemetry layer, whose lock-free registry is scraped
# while written and whose tracer ring is appended from every executor
# worker; and the serve daemon's maintenance endpoints and bounded drain.
test-race:
	$(GO) test -race -timeout 45m ./...
	$(GO) test -race -timeout 15m -count=2 ./internal/transport/
	$(GO) test -race -timeout 15m -count=2 ./internal/maintenance/
	$(GO) test -race -timeout 15m -count=2 ./internal/obs/
	$(GO) test -race -timeout 15m -count=2 -run 'Maintenance|DrainTimeout' ./internal/serve/

# Fuzz smoke: twenty seconds of coverage-guided inputs for each of eight
# targets. Five must match a reference exactly: the bitwidth-transfer
# delta scorer and its kept tables against a full evaluation bit for
# bit, the whole bitwidth-transfer search against the clone-per-move
# reference search, both matmul kernels (the AVX2 assembly, where the
# CPU has it, and the portable Go one) against the plain ikj loop, a
# token-log handoff (GenerateLog on one loopback stage chain, Resume
# on a differently split one) against one Generate and the in-process
# Reference, with no token lost or invented at the MaxPos edge, and the
# pipeline's decode-step price against the per-layer loop it replaced,
# bit for bit. The sixth checks that the planner's optimistic bound,
# which decides which configurations the search skips, never exceeds a
# feasible assignment's objective. The seventh feeds arbitrary bytes to
# the plan JSON decoder that cached and warm-start plans come through:
# no panic, Validate rejects malformed stages, and a valid bound plan
# survives a wire round trip unchanged. The eighth decodes arbitrary
# bytes as a serve job spec: Submit rejects it, or the job's batch is
# valid and equals a fresh synthesis, also when served from the batch
# memo. Their seed corpora
# (internal/core/testdata/fuzz and the f.Add seeds) also run as
# ordinary tests under `make test`.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDeltaScore -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBitwidthTransfer -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzOptimisticBound -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzMatMulBitExact -fuzztime=20s ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzHandoffSplice -fuzztime=20s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzDecodeStep -fuzztime=20s ./internal/pipeline
	$(GO) test -run='^$$' -fuzz=FuzzPlanJSON -fuzztime=20s ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzJobSpec -fuzztime=20s ./internal/serve

# Full gate: static checks plus the race-enabled suite.
check: vet test-race

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Gate the committed benchmark snapshots (the table in internal/perf
# lists every file, part and gate). A check fails when a BENCH_*.json
# file was generated from different benchmark scenarios than the
# checked-out code (stale), when the warm-vs-cold replan speedup, the
# online tier's goodput or TTFT p50, the capacity planner's fleet cost
# or simulated queue-wait p95, or the rolling-maintenance migrated
# session count has degraded more than 25% against the committed value,
# or when the telemetry layer costs the warm serve path more than the
# absolute 5% ceiling. Every gate runs and every failure is reported
# before the exit status is set. Replan and obs compare only ratios and
# the other scenarios are deterministic (virtual-clock simulations or
# session counts), so the gates are machine-independent.
bench-json:
	$(GO) run ./cmd/benchjson -check .

# Regenerate the committed snapshots (run after changing the planner,
# the replan engine, the online batching engine, the capacity planner,
# the telemetry layer, or the tracked scenarios; commit the result).
bench-json-out:
	$(GO) run ./cmd/benchjson -out .
