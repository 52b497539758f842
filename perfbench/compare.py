"""Steadiness self-check: do two sets of runs agree within BENCHMARK.json's bounds?

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of run records written by ``run.py --record-dir``
(one per workload and seed, ``--trace 0``). For every end-to-end metric on
every workload found in both sets it prints each set's median and spread
(interquartile distance over median) and one verdict:

    agree       the medians differ by at most the bound
    disagree    the medians differ by more than the bound
    unresolved  a set's spread exceeds the bound, so a difference of one
                bound cannot be told from noise

It also marks spreads above a third of the bound, the steadiness target.
Exits 1 when any pair disagrees or is unresolved.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import common


def load_set(directory: str) -> dict:
    """{workload: {metric: [values]}} from the --trace 0 records in a directory."""
    values: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        metrics = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return values


def verdict(a, b, bound: float) -> tuple[str, float, float, float]:
    spread_a, spread_b = common.spread(a), common.spread(b)
    change = common.median(b) / common.median(a) - 1.0
    if max(spread_a, spread_b) > bound:
        return "unresolved", spread_a, spread_b, change
    return ("agree" if abs(change) <= bound else "disagree"), spread_a, spread_b, change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    bad = 0
    print(f"{'workload':<18} {'metric':<16} {'n':>5} {'median A':>12} {'median B':>12}"
          f" {'spread A':>9} {'spread B':>9} {'change':>8} {'bound':>6}  verdict")
    for workload in common.WORKLOADS:
        if workload not in set_a or workload not in set_b:
            continue
        for name, bound in bounds.items():
            a, b = set_a[workload][name], set_b[workload][name]
            if min(len(a), len(b)) < 2:
                print(f"{workload:<18} {name:<16} fewer than two runs in a set")
                bad += 1
                continue
            result, spread_a, spread_b, change = verdict(a, b, bound)
            steady = "" if max(spread_a, spread_b) <= bound / 3 else "  (spread > bound/3)"
            bad += result != "agree"
            print(f"{workload:<18} {name:<16} {len(a):>2}/{len(b):<2} {common.median(a):>12.6g}"
                  f" {common.median(b):>12.6g} {spread_a:>9.4f} {spread_b:>9.4f}"
                  f" {change:>+8.4f} {bound:>6.3f}  {result}{steady}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
