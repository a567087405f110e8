#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from anywhere; everything the build and the runs write stays under
# .bench_build/ at the repository root.
#
#   bash bench/run.sh --workload flow_ldpc --seed 3 --seconds 12 --trace 0
#   bash bench/run.sh                      # every workload, one run each
#   bash bench/run.sh --compare base.json new.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

# The build cache and temporaries live inside the checkout; the toolchain is
# the local one and nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/tmi3dbench" .)
cd "$root"
exec "$out/tmi3dbench" "$@"
