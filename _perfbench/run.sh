#!/usr/bin/env bash
# Builds the GenDPR benchmark from the source tree it sits in and runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash _perfbench/run.sh --workload t4-fresh --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ in the tree.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/service" ]; then
    echo "perfbench: $root holds no GenDPR source tree (go.mod, internal/service)" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
