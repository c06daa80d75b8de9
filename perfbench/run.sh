#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload route --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# per-run scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. The benchmark module replaces the
# `repro` module with the parent directory, so the build fails, and
# the script exits non-zero without a result, when the repository
# sources are not there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C "$here" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
