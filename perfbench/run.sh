#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload offline-warm --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, the binary and the
# trace output all stay under the build directory ($CARGO_TARGET_DIR, or
# .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTELEMETRY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
