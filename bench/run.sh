#!/usr/bin/env bash
# Builds pefbench from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload campaign-uniform --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the build and the run leave
# behind (Go build cache, binary, span traces) goes under .bench_build/ in
# the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/pefbench" ./pefbench)
exec "$out/pefbench" "$@"
