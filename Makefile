GO ?= go

.PHONY: build test vet test-race check bench bench-json bench-json-out

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
