#!/usr/bin/env bash
# Builds the benchmark and the regserve daemon from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload solve64-f64 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory: the Go build cache, the
# binaries, the daemon journals of a run, and the traces of traced runs.
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"

cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/regserve" diffreg/cmd/regserve >&2
cd "$root"
exec "$out/perfbench" -regserve "$out/regserve" -workdir "$out/run" -tracedir "$out/traces" "$@"
