#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, generated inputs
# and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
# The go command keeps its telemetry counters under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
