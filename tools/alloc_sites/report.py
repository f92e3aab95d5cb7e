#!/usr/bin/env python3
"""Summarizes a perfbench_sites run: allocations per committed transaction of
perfbench's nominal phase, by mechanism and by innermost src/ frame.

    report.py BINARY SITES_FILE RESULT_JSON_LINE_FILE [TOP]

SITES_FILE is what alloc_sites.cc wrote ("count bytes addr..." per distinct
stack); the last line of RESULT_JSON_LINE_FILE is perfbench's result object,
whose exact.committed is the divisor. tools/alloc_sites.sh runs this.

Exits non-zero, after printing the tables, when the recorded allocations are
not exactly the run's host_allocs_per_txn times its committed transactions,
or when stacks were dropped: the tables then do not account for the figure.
"""

import collections
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# The first frame, from operator new outward, that names one of these
# decides the mechanism.
MECHANISMS = [
    ("std::function", ("std::_Function_base", "std::function<")),
    ("shared_ptr", ("std::_Sp_counted", "std::__shared_count", "std::__allocate_shared",
                    "std::make_shared", "std::__shared_ptr")),
    ("map/set node", ("std::_Rb_tree",)),
    ("hash node", ("std::__detail::_Hashtable", "std::_Hashtable")),
    ("string", ("basic_string",)),
    ("vector", ("std::vector<", "std::_Vector_base")),
]


def strip_templates(name):
    """Drops template arguments and parameter lists: Issue<...>(...) -> Issue."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        c = name[i]
        if name.startswith("operator", i):
            # operator(), operator<, operator<< ... keep the token whole.
            j = i + len("operator")
            while j < len(name) and name[j] in "()<>=!+-*/[]&|":
                j += 1
            if depth == 0:
                out.append(name[i:j])
            i = j
            continue
        if c in "<(":
            depth += 1
        elif c in ">)" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out).replace(" const", "").strip()


def symbolize(binary, addrs):
    """Maps each return address to its inline chain, innermost first."""
    args = ["addr2line", "-a", "-f", "-C", "-i", "-e", binary]
    # A return address follows its call: look up the call itself.
    query = ["0x%x" % (a - 1) for a in addrs]
    out = subprocess.run(args + query, check=True, capture_output=True, text=True).stdout
    chains = {}
    current = None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16) + 1
            chains[current] = []
            i += 1
            continue
        func, loc = line, lines[i + 1] if i + 1 < len(lines) else "??:0"
        chains[current].append((func, loc))
        i += 2
    return chains


def main():
    binary, sites_path, result_path = sys.argv[1:4]
    top = int(sys.argv[4]) if len(sys.argv) > 4 else 25
    result = json.loads(open(result_path).read().strip().splitlines()[-1])
    committed = result["exact"]["committed"]
    stacks = []
    dropped = 0
    for line in open(sites_path):
        if line.startswith("# dropped"):
            dropped = int(line.split()[2])
            continue
        parts = line.split()
        stacks.append((int(parts[0]), [int(a, 16) for a in parts[2:]]))
    chains = symbolize(binary, sorted({a for _, frames in stacks for a in frames}))

    by_mechanism = collections.Counter()
    by_site = collections.Counter()
    total = 0
    for count, frames in stacks:
        total += count
        expanded = [f for a in frames for f in chains.get(a, [])]
        mechanism = "other"
        for func, _ in expanded:
            hit = next((m for m, keys in MECHANISMS if any(k in func for k in keys)), None)
            if hit is not None:
                mechanism = hit
                break
        by_mechanism[mechanism] += count
        site = "(no src/ frame)"
        for func, loc in expanded:
            path = loc.split(" ")[0]
            if path.startswith(os.path.join(ROOT, "src") + os.sep):
                site = "%s  %s" % (strip_templates(func), os.path.relpath(path, ROOT))
                break
        by_site[site] += count

    per_txn = lambda n: n / committed
    print("workload %s seed %s: %d committed, host_allocs_per_txn %.2f, recorded %.2f%s"
          % (result["workload"], result["seed"], committed,
             result["exact"]["host_allocs_per_txn"], per_txn(total),
             "" if dropped == 0 else " (%d stacks dropped)" % dropped))
    print()
    print("%-16s %8s" % ("mechanism", "per txn"))
    for mechanism in [m for m, _ in MECHANISMS] + ["other"]:
        print("%-16s %8.2f" % (mechanism, per_txn(by_mechanism[mechanism])))
    print()
    print("%8s  %s" % ("per txn", "innermost src/ frame"))
    for site, n in by_site.most_common(top):
        print("%8.2f  %s" % (per_txn(n), site))

    reported = round(result["exact"]["host_allocs_per_txn"] * committed)
    if dropped != 0 or total != reported:
        print("error: recorded %d allocations and dropped %d stacks; the run reports %d"
              % (total, dropped, reported), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
