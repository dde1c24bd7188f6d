#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind stays inside the checkout: the Go build cache and
# the binaries under .bench_build/, the results under benchmark/out/.
#
#   bash benchmark/run.sh                                  all workloads → benchmark/out/result.json
#   bash benchmark/run.sh --workload dec_median --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh --compare a.json b.json
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$src")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the
# user's config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$src" && go build -o "$build/spear-benchmark" .)
cd "$root"
exec "$build/spear-benchmark" -src "$src" -build "$build" "$@"
