#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload sim-fabric --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, telemetry,
# the binary) stays under .bench_build/ at the checkout root. Outside a
# checkout of the repository the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
