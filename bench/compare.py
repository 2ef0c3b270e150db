#!/usr/bin/env python3
"""Do two benchmark run files agree?

    python3 bench/compare.py A.json B.json

A and B are files written by ``bench/run.py --all --record``.  For every
(workload, seed) both contain, prints one row per end-to-end metric —
value in A (the base), its sample count and quartile spread, value in B,
and the ratio B / A — and exits 1 when any end-to-end metric differs by
more than its bound in ``BENCHMARK.json`` or any count a workload marked
exact differs at all.  A ratio is always B over A.
"""

import json
import os
import sys


def load_runs(path):
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    return {(r["workload"], r["env"]["seed"], r["trace"]): r for r in runs}


def spread(record, metric):
    """``n`` and IQR/median of the timing samples behind ``metric``."""
    key = record["info"].get("metric_samples", {}).get(metric)
    summary = record["samples"].get(key)
    if not summary or "q1" not in summary:
        return ""
    iqr = (summary["q3"] - summary["q1"]) / summary["median"]
    return f"n={summary['n']} iqr={iqr:.1%}"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    base, other = load_runs(argv[1]), load_runs(argv[2])
    shared = sorted(set(base) & set(other))
    if not shared:
        sys.exit("compare: the two files share no (workload, seed) run")
    problems = []
    for key in shared:
        workload, seed, trace = key
        a, b = base[key], other[key]
        if a["env"]["sizes"] != b["env"]["sizes"]:
            sys.exit(f"compare: {workload} ran at different sizes in the two files")
        for side, record in (("A", a), ("B", b)):
            if record["failed"]:
                problems.append(f"{workload} seed={seed}: {side} has "
                                f"{record['failed']} failed operations")
        if not trace:
            print(f"\n{workload} seed={seed}  (ratio = B / A)")
            print(f"  {'metric':14s} {'A':>12s} {'A samples':>16s} {'B':>12s} "
                  f"{'ratio':>7s} {'bound':>6s}")
            for name, bound in bounds.items():
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                ratio = vb / va
                verdict = "" if abs(ratio - 1.0) <= bound else "  DIFFERS"
                print(f"  {name:14s} {va:12.6g} {spread(a, name):>16s} {vb:12.6g} "
                      f"{ratio:7.3f} {bound:6.2f}{verdict}")
                if verdict:
                    problems.append(f"{workload} seed={seed}: {name} ratio "
                                    f"{ratio:.3f} beyond ±{bound}")
        else:
            for name in a.get("exact", []):
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                if va != vb:
                    problems.append(f"{workload} seed={seed}: exact count {name} "
                                    f"{va!r} != {vb!r}")
    print()
    for problem in problems:
        print("DISAGREE:", problem)
    print(f"{len(shared)} runs compared, {len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
