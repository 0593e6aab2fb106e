#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it from the
# checkout's root. Everything the build writes — the Go build cache
# included — stays under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload wire-ring --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --workload all --runs 10 --trace both
#   bash benchmark/run.sh -compare old.json new.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The benchmark is its own module and reaches the repository through
# "replace ocep => ../": without the repository around it there is
# nothing to measure, and the build fails here.
(cd "$here" && go build -o "$build/ocep-benchmark" .) >&2

cd "$root"
exec "$build/ocep-benchmark" "$@"
