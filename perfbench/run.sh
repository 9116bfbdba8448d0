#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from any
# directory; build outputs (binary, Go build cache, trace files) go to
# .bench_build/ at the repository root, which git ignores.
#
#   bash perfbench/run.sh --workload churn-1k --seed 42 --seconds 30 --trace 0
#
# See perfbench/README.md for the workloads and metrics.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
