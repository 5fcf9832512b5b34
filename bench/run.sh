#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload mut-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# go command's config and telemetry, service data directories, trace
# files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/selfstab-bench" .) >&2
cd "$root"
exec "$out/selfstab-bench" "$@"
