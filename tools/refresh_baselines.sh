#!/usr/bin/env bash
# Regenerate the committed bench baselines in bench/baselines/.
#
# Run this when a change intentionally shifts bench numbers (new primitive on
# a path, cost-model change, workload change), then commit the resulting diff
# with that change — the baseline diff is the reviewable record of the perf
# impact. A baseline is rewritten only when tools/check_bench.py, run with the
# flags CI uses for that file, finds a difference against the fresh output;
# otherwise it keeps its bytes (and its stamp) and the script prints
# "unchanged". So a refresh on an unchanged tree is a no-op.
#
#   tools/refresh_baselines.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build-baselines (created if needed). perfbench is
# built in BUILD_DIR/perfbench the way perfbench/run.py builds it, and its
# seed-1 output goes to bench/baselines/perfbench/<workload>.trace<0|1>.json.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-baselines}"
benches=(throughput checkpoint_ablation table5_4_benchmarks pipeline_ablation commit_ablation
         scaleout simspeed queue_ablation logging_ablation)

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" --target "${benches[@]}"

cmake -S "$repo/perfbench" -B "$build/perfbench" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build/perfbench" -j "$(nproc)"

commit="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Copies bench JSON $1 to $2 with a provenance stamp for mode $3.
stamp() {
  python3 - "$1" "$2" "$3" "$commit" "$date" <<'EOF'
import json, sys
src, dst, mode, commit, date = sys.argv[1:6]
doc = json.load(open(src))
doc["meta"] = {"mode": mode, "commit": commit, "generated": date,
               "refresh": "tools/refresh_baselines.sh"}
with open(dst, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=False)
    f.write("\n")
EOF
}

# CI's comparison flags: simspeed's wall-clock fields skipped, perfbench's
# host and set-up figures skipped and its two allocation figures at 0.5%.
# Every other baseline compares exactly.
simspeed_flags=(--allow 'rows/*/wall_ms' --allow 'rows/*/events_per_sec'
                --allow 'rows/*/sim_per_wall')
perfbench_flags=(--allow 'host/*' --allow 'setup_s/*'
                 --tolerance 'exact/host_allocs_per_txn=0.005'
                 --tolerance 'exact/host.alloc_bytes_per_txn=0.005')

# Stamps bench JSON $1 into baseline $2 for mode $3 when check_bench.py, given
# the remaining arguments as flags, reports a difference (or $2 is missing).
refresh() {
  local src="$1" dst="$2" mode="$3"
  shift 3
  if [ -f "$dst" ] && python3 "$repo/tools/check_bench.py" "$dst" "$src" "$@" >/dev/null; then
    echo "unchanged ${dst#"$repo/"}"
  else
    stamp "$src" "$dst" "$mode"
    echo "wrote ${dst#"$repo/"}"
  fi
}

# $1 = smoke|full, $2 = commit mode ("" for two-phase commit, or paxos), then
# the benches to run. A Paxos leg's baselines go in a paxos/ subdirectory.
run_mode() {
  local mode="$1" commit_mode="$2" outdir tmp a
  shift 2
  outdir="bench/baselines/$mode${commit_mode:+/$commit_mode}"
  tmp="$(mktemp -d)"
  mkdir -p "$repo/$outdir"
  (
    cd "$tmp"
    # Set for every leg, so the caller's shell cannot pick the protocol.
    export TABS_COMMIT_MODE="$commit_mode"
    for b in "$@"; do
      if [ "$mode" = smoke ]; then
        TABS_BENCH_SMOKE=1 "$build/bench/$b" >/dev/null
      else
        "$build/bench/$b" >/dev/null
      fi
    done
  )
  local written=("$tmp"/BENCH_*.json)
  if [ "${#written[@]}" -ne "$#" ]; then
    echo "expected one BENCH_*.json per bench ($#), found ${#written[@]}" >&2
    exit 1
  fi
  for a in "${written[@]}"; do
    a="${a##*/}"
    if [ "$a" = BENCH_simspeed.json ]; then
      refresh "$tmp/$a" "$repo/$outdir/$a" "$mode" "${simspeed_flags[@]}"
    else
      refresh "$tmp/$a" "$repo/$outdir/$a" "$mode"
    fi
  done
  rm -rf "$tmp"
}

# perfbench's result line for every workload at seed 1, untraced and traced,
# with the settings run.py scrubs cleared so the caller's shell cannot leak
# into them.
run_perfbench() {
  local tmp w t
  tmp="$(mktemp)"
  mkdir -p "$repo/bench/baselines/perfbench"
  for w in bank-local sharded-2pc sharded-paxos paged-recovery; do
    for t in 0 1; do
      (cd "$repo" && env -u TABS_COMMIT_MODE -u TABS_TRACE -u TABS_BENCH_SMOKE \
        "$build/perfbench/perfbench" --workload "$w" --seed 1 --trace "$t" | tail -n 1 > "$tmp")
      refresh "$tmp" "$repo/bench/baselines/perfbench/$w.trace$t.json" perfbench \
        "${perfbench_flags[@]}"
    done
  done
  rm -f "$tmp"
}

run_mode smoke "" "${benches[@]}"
run_mode smoke paxos scaleout
run_mode full "" "${benches[@]}"
run_perfbench
