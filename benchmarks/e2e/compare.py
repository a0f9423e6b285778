"""``run.py compare A/summary.json B/summary.json``: the repeatability and regression tool.

Both summaries come from the all-workloads mode at the same ``--seed``
(``--repeats N`` gives each side N runs).  One row per workload x
end-to-end metric — the ones in ``BENCHMARK.json``, which every workload
reports, then the workload-scoped ones and the same-seed absolute bounds
in ``bounds.json`` — with both medians, how much worse B is than A
(negative = better), the run-to-run spread (distance between the
quartiles, the larger of the two sides) and the bound.  A bound is
relative to A's median unless shown as ``abs``.  A row is

* ``unresolved`` when the spread exceeds the bound — the runs cannot tell
  a regression of that size from noise, so it is not reported as
  unchanged;
* ``BREACH`` when B is worse than A by more than the bound;
* ``ok`` otherwise.

Exits non-zero on any breach.  With fewer than two runs per side the
spread is unknown and shown as ``n/a``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from harness import load_bounds, load_spec


def values_by_cell(summary) -> Dict[tuple, List[float]]:
    cells: Dict[tuple, List[float]] = {}
    for row in summary["runs"]:
        if row["trace"]:
            continue
        for name, entry in row["metrics"].items():
            cells.setdefault((row["workload"], name), []).append(entry["value"])
    return cells


def iqr(values: List[float]) -> Optional[float]:
    """Distance between the quartiles."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def bounded_cells() -> Iterator[Tuple[str, Dict[str, Any], float, bool]]:
    """``(workload, metric, bound, is_absolute)`` for every row of the table."""
    spec, bounds = load_spec(), load_bounds()
    workloads = [entry["name"] for entry in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            yield workload, metric, metric["bound"], False
            if metric["name"] in bounds["same_seed_absolute"]:
                yield workload, metric, bounds["same_seed_absolute"][metric["name"]], True
        for metric in bounds["scoped"]:
            if workload in metric["workloads"]:
                absolute = "absolute" in metric
                yield workload, metric, metric["absolute" if absolute else "bound"], absolute


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A/summary.json B/summary.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        side_a = values_by_cell(json.load(handle))
    with open(argv[1], encoding="utf-8") as handle:
        side_b = values_by_cell(json.load(handle))
    breaches = 0
    print(f"{'workload':13s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>10s} {'spread':>10s} {'bound':>10s}  verdict")
    for workload, metric, bound, absolute in bounded_cells():
        cell = (workload, metric["name"])
        if cell not in side_a or cell not in side_b:
            print(f"{workload:13s} {metric['name']:20s} missing on one side  BREACH")
            breaches += 1
            continue
        a, b = statistics.median(side_a[cell]), statistics.median(side_b[cell])
        # Relative figures are shares of A's median (a healthy A is never 0).
        scale = 1.0 if absolute else abs(a)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (b - a) / scale if scale else 0.0
        spreads = [s / scale for s in (iqr(side_a[cell]), iqr(side_b[cell]))
                   if s is not None and scale]
        widest = max(spreads) if spreads else None
        if widest is not None and widest > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "BREACH"
            breaches += 1
        else:
            verdict = "ok"
        if absolute:
            shown = ["n/a" if widest is None else f"abs {widest:.4f}",
                     f"{worse:+.4f}", f"abs {bound:.4f}"]
        else:
            shown = ["n/a" if widest is None else f"{widest:.2%}",
                     f"{worse:+.2%}", f"{bound:.2%}"]
        print(f"{workload:13s} {metric['name']:20s} {a:12.4f} {b:12.4f} "
              f"{shown[1]:>10s} {shown[0]:>10s} {shown[2]:>10s}  {verdict}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
