#!/usr/bin/env bash
# Builds the benchmark and the bfsd daemon from this checkout, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload rmat-sweep --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --workload mesh-sweep
#
# Everything the build and the run write stays under the checkout's
# build directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go
# build cache, temporary files, binaries, span files. Build output goes
# to stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
export GOWORK=off

(cd "$root" && go build -o "$out/bfsd" ./cmd/bfsd) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -root "$root" -bfsd "$out/bfsd" -out "$out" "$@"
