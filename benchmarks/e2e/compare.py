#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark run records.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py`` writes (``--out``).
Records are grouped by workload and trace mode; inside a group they pair
up in (seed, creation time) order, so run both sides with the same seeds.
For every workload x metric the tool prints each side's median and
quartiles, the ratio of medians (change / parent), the fraction of pairs
the change wins (ties count for neither) and a verdict:

* ``better``     the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` the parent's own spread (IQR / median) is wider than the
  metric's bound, so the bound cannot be judged;
* ``worse``      the change's median is worse than the parent's by more
  than the bound in ``BENCHMARK.json``;
* ``unchanged``  otherwise.

Per-layer metrics, and the ``extra`` metrics a record may hold (such as
``solve_s_p98`` on batch_tiny), have no bound: they are ``better`` or
``worse`` by the win rule alone.

Costs are deterministic, so they are also compared case by case: a case
whose cost at some seed is higher on the change side than on the parent
side is a cost rise, and counts as worse whatever the bounds say.  The
exit status is 1 when any metric is worse or any cost rose.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
WIN_FRACTION = 0.9
#: direction of the unbounded ``extra`` metrics of a record
EXTRA_BETTER = {"solve_s_p98": "lower"}


def _records(directory: Path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in groups.values():
        records.sort(key=lambda r: (r["seed"], r["created"]))
    return groups


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None):
    """``(verdict, ratio, win fraction)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_fraction = wins / len(pairs)
    p1, p_med, p3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    ratio = c_med / p_med if p_med else float("nan")
    gain = sign * (c_med - p_med)
    if win_fraction >= WIN_FRACTION and gain > p3 - p1:
        return "better", ratio, win_fraction
    if bound is None:
        lost = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs)
        worse = lost >= WIN_FRACTION and -gain > p3 - p1
        return ("worse" if worse else "unchanged"), ratio, win_fraction
    spread = (p3 - p1) / abs(p_med) if p_med else 0.0
    if spread > bound and not all(sign * (c - p) > 0 for p in parent for c in change):
        return "unresolved", ratio, win_fraction
    if p_med and -gain / abs(p_med) > bound:
        return "worse", ratio, win_fraction
    return "unchanged", ratio, win_fraction


def cost_rises(parent: list[dict], change: list[dict]) -> list[str]:
    """Every (workload, seed, case) whose cost is higher in ``change``."""
    before = {
        (record["workload"], record["seed"], case["key"]): case["cost"]
        for record in parent
        for case in record["cases"]
        if case["cost"] is not None
    }
    rises = set()
    for record in change:
        for case in record["cases"]:
            old = before.get((record["workload"], record["seed"], case["key"]))
            if old is not None and case["cost"] is not None and case["cost"] > old:
                rises.add(
                    f"{record['workload']} seed {record['seed']} {case['key']}: "
                    f"cost {old:g} -> {case['cost']:g}"
                )
    return sorted(rises)


def _values(records: list[dict], name: str) -> list[float]:
    return [{**r.get("extra", {}), **r["metrics"]}[name]["value"] for r in records]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    metrics.update({name: (better, None) for name, better in EXTRA_BETTER.items()})
    parent, change = (_records(Path(arg)) for arg in argv)
    worse = 0
    header = f"{'workload':11s} {'metric':30s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'ratio':>7s} {'wins':>5s}  verdict"
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        a, b = parent[key], change[key]
        shared = {**a[0].get("extra", {}), **a[0]["metrics"]}.keys() & {
            **b[0].get("extra", {}), **b[0]["metrics"]
        }.keys()
        for name in sorted(shared & metrics.keys()):
            better, bound = metrics[name]
            pv, cv = _values(a, name), _values(b, name)
            result, ratio, wins = verdict(pv, cv, better, bound)
            worse += result == "worse"
            pq, cq = _quartiles(pv), _quartiles(cv)
            print(
                f"{workload:11s} {name:30s} "
                f"{'/'.join(f'{x:.4g}' for x in pq):>32s} {'/'.join(f'{x:.4g}' for x in cq):>32s} "
                f"{ratio:7.3f} {wins:5.2f}  {result}"
                f"{'' if bound is None else f' (bound {bound:g})'}"
                f"{'' if trace == 0 else ' [traced]'}"
            )
    missing = sorted(set(parent) ^ set(change))
    for workload, trace in missing:
        print(f"{workload} (trace {trace}): records on one side only")
    rises = cost_rises(
        [r for records in parent.values() for r in records],
        [r for records in change.values() for r in records],
    )
    for rise in rises:
        print(f"cost rise: {rise}")
    print(f"{worse} metric(s) worse, {len(rises)} cost rise(s)")
    return 1 if worse or rises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
