#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload train-mlp --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root, next to go.mod and internal/" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
