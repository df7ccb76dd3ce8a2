#!/usr/bin/env bash
# Builds flcluster and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash flbench/run.sh --workload cold-weighted --seed 1 --seconds 20 --trace 0
#   bash flbench/run.sh -steady 10 -seconds 20
#
# Build outputs and the Go build cache stay in .bench_build at the
# checkout's root.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$out/flcluster" ./cmd/flcluster)
(cd "$bench" && go build -o "$out/flbench" .)
exec "$out/flbench" -daemon "$out/flcluster" -out "$out" "$@"
