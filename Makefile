GO ?= go

.PHONY: build test fmt-check arm64-fused clock-check vet test-race fuzz check bench bench-json bench-json-out

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails listing every Go file gofmt would change (dot directories such
# as .git and the benchmark build directory are skipped).
fmt-check:
	@out=$$(find . -name '*.go' -not -path './.*/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# Go on arm64 fuses a*b+c into one FMADD-family instruction unless the
# product is converted first; amd64 never fuses it. Code that must round
# as amd64 does is checked in the arm64 compiler output: every function
# of tensor and tinyllm (the forward pass), quant's fake quantizer
# (QuantDequant and its per-row grid), the RNG draws that make tinyllm's
# weights, the planner's prefill, embedding and LM-head formulas in
# model, and gpu's decode, LM-head and embedding latencies. The build
# replays cached compiler output, so the step is cheap.
arm64-fused:
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/tensor ./internal/tinyllm \
		./internal/quant ./internal/stats ./internal/model ./internal/gpu 2>&1) || { echo "$$asm"; exit 1; }; \
	fused=$$(echo "$$asm" | awk '/^[^ \t#]/ {fn = $$1} /\t(FMADD|FMSUB|FNMADD|FNMSUB)/ {print fn}' | sort -u | grep -E \
		-e '^repro/internal/(tensor|tinyllm)\.' \
		-e '^repro/internal/quant\.(QuantDequant|newRowGrid|\(\*rowGrid\)\.round)$$' \
		-e '^repro/internal/stats\.\(\*RNG\)\.(NormMS|LogNormal)$$' \
		-e '^repro/internal/model\.\(\*Spec\)\.(LayerFLOPsPrefill|LayerMOPsPrefill|EmbedFLOPs|Profile)$$' \
		-e '^repro/internal/gpu\..*([Dd]ecode|LMHeadLatency|EmbedLatency)'); \
	if [ -n "$$fused" ]; then echo "arm64 fuses a multiply-add in:"; echo "$$fused"; exit 1; fi

# Control-plane time goes through internal/clock: the serve daemon, the
# stage transport, the maintenance orchestrator and cmd/served read the
# time, sleep and derive timeouts on a clock.Clock (clock.Real outside
# tests), so their timer tests advance a clock.Fake instead of sleeping.
# Their non-test files may not call time.Now, time.Since, time.Sleep,
# time.After, time.NewTimer or context.WithTimeout, except where the
# time bounds real work or real sockets, allowed below by file and
# pattern: net.Conn deadlines (transport.go, supervisor.go), the chaos
# proxy's injected delays (chaos.go), the HTTP server's shutdown bound
# (serve.go) and the online tier's planning bound (cmd/served). Tickers
# that only pace a loop are not checked.
clock-check:
	@hits=$$(grep -nE 'time\.(Now|Since|Sleep|After|NewTimer)\b|context\.WithTimeout' \
		$$(ls internal/serve/*.go internal/transport/*.go internal/maintenance/*.go cmd/served/*.go | grep -v '_test\.go$$') | grep -vE \
		-e '^internal/transport/transport\.go:[0-9]+:.*conn\.Set(Read|Write)Deadline\(time\.Now\(\)\.Add\(s\.ioTimeout\)\)' \
		-e '^internal/transport/supervisor\.go:[0-9]+:.*deadline = time\.Now\(\)\.Add\(timeout\)' \
		-e '^internal/transport/chaos\.go:[0-9]+:.*time\.Sleep\((delay|stallFor)\)' \
		-e '^internal/serve/serve\.go:[0-9]+:.*shCtx, cancel := context\.WithTimeout\(context\.Background\(\), 5\*time\.Second\)' \
		-e '^cmd/served/main\.go:[0-9]+:.*context\.WithTimeout\(context\.Background\(\), time\.Minute\)'); \
	if [ -n "$$hits" ]; then echo "control-plane time read past internal/clock:"; echo "$$hits"; exit 1; fi

# The arm64 vet and 386 build keep the portable matmul kernel (built
# wherever the amd64 assembly is not) compiling; vet on amd64 also runs
# asmdecl over the assembly. perfbench/ is its own module (the
# repository benchmark) and compiles against serve, online, core and
# capacity, so an API change that breaks it fails here too.
vet: fmt-check arm64-fused clock-check
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

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
# worker; and the serve daemon's maintenance endpoints, bounded drain,
# and preempt/restore replans, whose plan-cache lookups and solves run
# while fault injectors change the pool.
test-race:
	$(GO) test -race -timeout 45m ./...
	$(GO) test -race -timeout 15m -count=2 ./internal/transport/
	$(GO) test -race -timeout 15m -count=2 ./internal/maintenance/
	$(GO) test -race -timeout 15m -count=2 ./internal/obs/
	$(GO) test -race -timeout 15m -count=2 -run 'Maintenance|DrainTimeout|Preempt|Restore' ./internal/serve/

# Fuzz smoke: twenty seconds of coverage-guided inputs for each of
# sixteen targets. Eleven must match a reference: a bitwidth-transfer
# move's exact score and the search's kept sums against a full
# evaluation bit for bit, and the move's estimate within its error
# margin; the whole bitwidth-transfer search against the clone-per-move
# reference search; the search's start points, built into reused
# buffers, against their references (adabits against its O(L²) greedy);
# the simplex solver against the dense tableau solver
# it replaced, bit for bit on random LPs; the branch-and-bound solver
# against enumeration of every binary point of random 0/1 programs, with
# and without the rows that make its box rows redundant; both matmul
# kernels (the AVX2 assembly, where the CPU has it, and the portable Go
# one) against the plain ikj loop; GELU and the softmax (the AVX2+FMA kernels, where the
# CPU has them) against the scalar loops they replaced, bit for bit on
# fuzzed float32 bit patterns; a token-log handoff (GenerateLog on one
# loopback stage chain, Resume on a differently split one) against one
# Generate and the in-process Reference, with no token lost or invented
# at the MaxPos edge; the pipeline's decode-step price against the per-layer loop it
# replaced, bit for bit; one layer's decode-latency curve against
# the per-call roofline and TP formulas it replaced, bit for bit, over
# every model, device class and TP degree; and the fake quantizer
# against the bit-packed quantize-then-dequantize round trip it
# replaced, bit for bit on fuzzed float32 bit patterns at 3, 4 and 8
# bits, both forms and both roundings. The twelfth checks that the
# planner's optimistic bound, which decides which configurations the
# search skips, never exceeds a feasible assignment's objective. The
# thirteenth feeds arbitrary bytes to the plan JSON decoder that cached and
# warm-start plans come through: no panic, Validate rejects malformed
# stages, and a valid bound plan survives a wire round trip unchanged.
# The fourteenth decodes arbitrary bytes as a serve job spec: Submit rejects
# it, or the job's batch is valid and equals a fresh synthesis, also
# when served from the batch memo. The fifteenth decodes arbitrary bytes
# as an online request spec: Submit rejects it, or the request fits the
# model's positions without overflow, reserves a positive KV footprint
# and its status echoes the spec. The sixteenth feeds arbitrary bytes to
# the stage frame reader: every frame decodes or fails, never panics and
# never allocates past one frame of the bound, and requests and replies
# round-trip exactly, float32 bit patterns and NaN payloads included.
# Their seed corpora
# (internal/core/testdata/fuzz and the f.Add seeds) also run as
# ordinary tests under `make test`.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDeltaScore -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBitwidthTransfer -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzStartPoints -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzOptimisticBound -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSolveMatchesDense -fuzztime=20s ./internal/lp
	$(GO) test -run='^$$' -fuzz=FuzzILPMatchesBruteForce -fuzztime=20s ./internal/ilp
	$(GO) test -run='^$$' -fuzz=FuzzMatMulBitExact -fuzztime=20s ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzGELUBitExact -fuzztime=20s ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzHandoffSplice -fuzztime=20s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzDecodeStep -fuzztime=20s ./internal/pipeline
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCurve -fuzztime=20s ./internal/gpu
	$(GO) test -run='^$$' -fuzz=FuzzQuantDequant -fuzztime=20s ./internal/quant
	$(GO) test -run='^$$' -fuzz=FuzzPlanJSON -fuzztime=20s ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzJobSpec -fuzztime=20s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzRequestSpec -fuzztime=20s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=20s ./internal/transport

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
