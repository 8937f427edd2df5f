"""``run.py compare A.json B.json``: is B worse than A beyond the bounds?

A and B are files ``run.py --out`` wrote — one *set* of runs each, usually
ten seeds per workload.  For every workload and end-to-end metric the table
gives both medians, B over A (the base is always A), each set's spread (the
distance between its quartiles as a share of its median) and a verdict:

  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  a set's spread is wider than the bound, so these runs cannot
              tell; it is not reported as unchanged
  ok          neither

A last row per workload gives the share of operations that failed; any
increase is a regression.  Exit code 1 if anything regressed, 2 if the two
sets cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

Key = Tuple[str, str]


def load_set(path: str) -> Tuple[Dict[Key, List[float]], set]:
    """Untraced runs of one file: values per (workload, metric), and the
    (scale, seconds) stamps they carry."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    values: Dict[Key, List[float]] = {}
    stamps = set()
    for run in runs:
        if run["trace"]:
            continue
        stamps.add((run["scale"], run["seconds"]))
        for name in ("failed", "attempted"):
            values.setdefault((run["workload"], name), []).append(
                run["result"][name])
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values, stamps


def spread(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(metric: Dict[str, Any], a: List[float], b: List[float]) -> str:
    bound = metric["bound"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    if any(s is not None and s > bound for s in (spread(a), spread(b))):
        return "unresolved"
    if metric["better"] == "lower":
        worse = med_b > med_a * (1 + bound)
    else:
        worse = med_b < med_a * (1 - bound)
    return "regressed" if worse else "ok"


def main(argv: List[str], contract: Dict[str, Any]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (a, stamps_a), (b, stamps_b) = load_set(argv[0]), load_set(argv[1])
    if len(stamps_a | stamps_b) != 1:
        print(f"compare: runs of different scale or length cannot be set "
              f"side by side: A has {sorted(stamps_a)}, B has "
              f"{sorted(stamps_b)} (scale, seconds)", file=sys.stderr)
        return 2

    def show(s: Optional[float]) -> str:
        return "     -" if s is None else f"{s:6.3f}"

    print(f"{'workload':<16} {'metric':<21} {'A median':>11} {'B median':>11} "
          f"{'B/A':>6} {'sprd A':>6} {'sprd B':>6} {'bound':>5} "
          f"{'n':>5}  verdict")
    regressed = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result = verdict(metric, a[key], b[key])
            regressed += result == "regressed"
            med_a = statistics.median(a[key])
            med_b = statistics.median(b[key])
            print(f"{workload:<16} {metric['name']:<21} {med_a:>11.5g} "
                  f"{med_b:>11.5g} {med_b / med_a:>6.3f} "
                  f"{show(spread(a[key]))} {show(spread(b[key]))} "
                  f"{metric['bound']:>5.2f} {len(a[key]):>2}/{len(b[key]):<2}"
                  f"  {result}")
        if (workload, "failed") in a and (workload, "failed") in b:
            share_a, share_b = (
                sum(s[workload, "failed"]) / sum(s[workload, "attempted"])
                for s in (a, b))
            result = "regressed" if share_b > share_a else "ok"
            regressed += result == "regressed"
            print(f"{workload:<16} {'failed_ops_share':<21} {share_a:>11.5g} "
                  f"{share_b:>11.5g} {'':>32}  {result}")
    return 1 if regressed else 0
