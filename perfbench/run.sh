#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload heap-scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root. Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
# The revision the benchmark reports is the checkout's own, never that of
# a repository the checkout happens to sit in.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
