#!/usr/bin/env bash
# Builds the benchmark and the pscd daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile-acc8192 --seed 0 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and span dumps all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep every file the go command writes (build cache, module cache,
# telemetry counters under the user config directory) inside $out.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/pscd" ./cmd/pscd >&2

exec "$out/perfbench" -pscd "$out/pscd" -trace-dir "$out/trace" "$@"
