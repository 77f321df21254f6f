#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-bfs --seed 1 --seconds 25 --trace 0
#
# Build outputs (binary, Go build cache) stay under $CARGO_TARGET_DIR,
# default .bench_build, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The toolchain's usual install location, for shells that lack it on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
