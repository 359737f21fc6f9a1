#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload acloud-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ in the checkout, so a run reads and writes only inside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$build/cologne-bench" .)
exec "$build/cologne-bench" -dir "$here" "$@"
