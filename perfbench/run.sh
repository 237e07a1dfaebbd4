#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload mixed-lowconf --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary build files, node data directories, span
# files) stays under .bench_build/ in the current directory, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

# go build is incremental: after the first build it only checks the cache.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
