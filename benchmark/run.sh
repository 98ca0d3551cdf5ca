#!/usr/bin/env bash
# Entry point BENCHMARK.json names: the same as `go run ./benchmark`, with
# the Go build cache kept inside the checkout so that a run reads and
# writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
exec go run ./benchmark "$@"
