#!/usr/bin/env bash
# Builds cdsd and the benchmark harness from the source tree in the
# current directory, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (the Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cdsd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/cdsd and perfbench/)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/cdsd" ./cmd/cdsd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cdsd "$out/cdsd" -spans "$out/spans" "$@"
