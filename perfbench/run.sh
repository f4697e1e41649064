#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Every build artefact and scratch file stays under .bench_build/ in the
# directory this is started from (the checkout root).
#
#   bash perfbench/run.sh --workload study --seed 7 --seconds 35 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOFLAGS=
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

# Build output goes to stderr so the result line stays the last line of
# stdout.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) 1>&2
exec "$out/bin/perfbench" "$@"
