#!/usr/bin/env bash
# Where perfbench's allocations come from.
#
#   tools/alloc_sites.sh WORKLOAD [SEED] [BUILD_DIR] [TOP]
#
# Builds perfbench's unchanged sources in BUILD_DIR (default
# ./build-alloc-sites) with tools/alloc_sites/alloc_sites.cc in place of
# perfbench/alloc_count.cc, runs WORKLOAD at SEED (default 1) once, untraced,
# and prints the nominal phase's allocations per committed transaction, by
# mechanism (std::function, vector, map/set node, hash node, shared_ptr,
# string) and by innermost src/ frame (the TOP sites, default 25). The
# recorded total equals the host_allocs_per_txn the same run reports.
# Nothing under perfbench/ is written.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
workload="${1:?usage: tools/alloc_sites.sh WORKLOAD [SEED] [BUILD_DIR] [TOP]}"
seed="${2:-1}"
build="${3:-$repo/build-alloc-sites}"
top="${4:-25}"

cmake -S "$repo/tools/alloc_sites" -B "$build" >/dev/null
cmake --build "$build" -j "$(nproc)" >/dev/null

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
TABS_ALLOC_SITES_OUT="$out/sites.txt" \
  "$build/perfbench_sites" --workload "$workload" --seed "$seed" --trace 0 >"$out/result.txt"
python3 "$repo/tools/alloc_sites/report.py" "$build/perfbench_sites" "$out/sites.txt" \
  "$out/result.txt" "$top"
