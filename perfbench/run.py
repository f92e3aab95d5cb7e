#!/usr/bin/env python3
"""The two-clock benchmark of the TABS reproduction.

    python3 perfbench/run.py --workload bank-local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds perfbench/ (and with it
../src) into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when
that is set, then repeats rounds of one workload at one seed for --seconds
(at least MIN_ROUNDS). Every round is a fresh process that must print the
same virtual-time figures: a round that differs fails the run. Host figures
are the medians over the rounds.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones (see README.md). The exit code is non-zero when the build or
any correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bank-local", "sharded-2pc", "sharded-paxos", "paged-recovery"]
MIN_ROUNDS = 3
# Whole-run wall budget: no new round starts after this many seconds.
MAX_WALL_S = 150
# Settings the program would otherwise read from the environment; the
# benchmark fixes them itself, so the result never depends on them.
SCRUBBED_ENV = ("TABS_COMMIT_MODE", "TABS_TRACE", "TABS_BENCH_SMOKE")

# name -> (unit, source): "exact" figures repeat byte for byte across rounds,
# "host" figures are medians over the rounds, "setup" the median of every
# set-up in every round. "vms" is a virtual millisecond, "vs" a virtual
# second.
END_TO_END = {
    "txn_mean_vms": ("vms", "exact"),
    "txn_p99_vms": ("vms", "exact"),
    "goodput_txn_per_vs": ("txn/vs", "exact"),
    "slo_rate_txn_per_vs": ("txn/vs", "exact"),
    "recovery_vms": ("vms", "exact"),
    "host_allocs_per_txn": ("count", "exact"),
    "peak_rss_mb": ("MB", "host"),
    "setup_s": ("s", "setup"),
}

PER_LAYER = {
    "sim.events_per_txn": ("count", "exact"),
    "sim.events_per_s": ("1/s", "host"),
    "sim.sys_cpu_share": ("ratio", "host"),
    "sim.os_switches_per_event": ("ratio", "host"),
    "sim.drain_wall_s": ("s", "host"),
    "host.txn_per_cpu_s": ("txn/s", "host"),
    "host.txn_per_wall_s": ("txn/s", "host"),
    "host.alloc_bytes_per_txn": ("B", "exact"),
    "log.forces_per_txn": ("count", "exact"),
    "log.stable_pages_per_txn": ("count", "exact"),
    "log.bytes_per_txn": ("B", "exact"),
    "log.force_vms_p99": ("vms", "exact"),
    "lock.acquire_vms_p50": ("vms", "exact"),
    "lock.acquire_vms_p99": ("vms", "exact"),
    "lock.timeouts_per_txn": ("count", "exact"),
    "txn.attempts_per_txn": ("count", "exact"),
    "txn.precommit_vms_p50": ("vms", "exact"),
    "txn.commit_vms_p50": ("vms", "exact"),
    "txn.commit_vms_p99": ("vms", "exact"),
    "txn.readonly_commit_vms_p50": ("vms", "exact"),
    "txn.prepare_vms_p99": ("vms", "exact"),
    "comm.session_calls_per_txn": ("count", "exact"),
    "comm.datagrams_per_txn": ("count", "exact"),
    "comm.local_msgs_per_txn": ("count", "exact"),
    "comm.remote_call_vms_p99": ("vms", "exact"),
    "kernel.page_ios_per_txn": ("count", "exact"),
    "kernel.faults_per_txn": ("count", "exact"),
    "kernel.fg_writebacks_per_txn": ("count", "exact"),
    "kernel.bg_writebacks_per_txn": ("count", "exact"),
    "kernel.fault_vms_p99": ("vms", "exact"),
    "recovery.reclaims_per_ktxn": ("count", "exact"),
    "recovery.log_bytes_retained": ("B", "exact"),
    "recovery.records_scanned": ("count", "exact"),
    "recovery.recover_wall_ms": ("ms", "host"),
    "servers.withdraw_vms_p50": ("vms", "exact"),
    "servers.withdraw_vms_p99": ("vms", "exact"),
    "servers.deposit_vms_p50": ("vms", "exact"),
    "servers.deposit_vms_p99": ("vms", "exact"),
    "servers.balance_vms_p50": ("vms", "exact"),
    "servers.balance_vms_p99": ("vms", "exact"),
    "servers.setcell_vms_p50": ("vms", "exact"),
    "servers.setcell_vms_p99": ("vms", "exact"),
    "name.resolve_vms": ("vms", "exact"),
    "name.resolve_wall_ms": ("ms", "host"),
    "tabs.world_ctor_s": ("s", "host"),
    "tabs.install_s": ("s", "host"),
    "tabs.seed_s": ("s", "host"),
    "tabs.app.vms_per_txn": ("vms", "exact"),
    "txn.vms_per_txn": ("vms", "exact"),
    "recovery.vms_per_txn": ("vms", "exact"),
    "comm.vms_per_txn": ("vms", "exact"),
    "servers.vms_per_txn": ("vms", "exact"),
    "kernel.vms_per_txn": ("vms", "exact"),
    "log.vms_per_txn": ("vms", "exact"),
    "trace.overhead_ratio": ("ratio", "host"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def pin_to_one_cpu():
    """The simulator runs exactly one task thread at a time (strict hand-off
    between pooled OS threads), so one CPU loses no parallelism. Pinned, every
    hand-off stays on one core's caches and the wall-clock figures stop
    depending on where the OS places each woken thread. The highest-numbered
    allowed CPU is taken: CPU 0 usually takes the most interrupts."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def run_round(binary, workload, seed, trace, spans_out, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} round timed out")
        return None
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {workload} round printed no result (exit {p.returncode})")
        return None
    if p.returncode != 0:
        result["correct"] = False
    return result


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(binary, workload, seed, seconds, trace):
    """Rounds for `seconds` (at least MIN_ROUNDS); returns the result object."""
    start = time.monotonic()
    deadline = start + MAX_WALL_S + 25
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    rounds = []
    errors = []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        if rounds and time.monotonic() - start > MAX_WALL_S:
            break
        spans_out = os.path.join(spans_dir, workload + ".jsonl") if trace and not rounds else ""
        r = run_round(binary, workload, seed, trace, spans_out, deadline)
        if r is None:
            errors.append("a round printed no result")
            break
        rounds.append(r)
        errors += r.get("errors", [])
        if not r["correct"]:
            break
    if rounds and any(r["exact"] != rounds[0]["exact"] for r in rounds):
        errors.append("virtual-time figures differ between rounds at one seed")

    catalogue = PER_LAYER if trace else END_TO_END
    metrics = {}
    if rounds:
        for name, (unit, source) in catalogue.items():
            if source == "exact":
                value = rounds[0]["exact"].get(name)
            elif source == "host":
                value = median([r["host"][name] for r in rounds if name in r["host"]])
            else:
                value = median([s for r in rounds for s in r["setup_s"]])
            if value is None:
                errors.append(f"metric {name} missing")
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
    attempted = sum(int(r["exact"]["attempted"]) for r in rounds)
    failed = sum(int(r["exact"]["failed"]) for r in rounds)
    correct = bool(rounds) and not errors and all(r["correct"] for r in rounds)
    for e in errors:
        log(f"perfbench: {workload}: {e}")
    detail = {k: v for k, v in rounds[0]["exact"].items() if k not in metrics} if rounds else {}
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if rounds else 1,
        "metrics": metrics,
        "rounds": len(rounds),
        "detail": detail,
    }


def print_table(workload, res):
    print(f"# {workload}: {res['rounds']} rounds, correct={res['correct']}, "
          f"attempted={res['attempted']}, failed={res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, v in res["detail"].items():
        print(f"  {name:32s} {v:>16.6g} (detail)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cpu = pin_to_one_cpu()
    log(f"perfbench: pinned to cpu {cpu}")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        results[w] = run_workload(binary, w, args.seed, args.seconds, args.trace)
        print_table(w, results[w])
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        r = results[args.workload]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
