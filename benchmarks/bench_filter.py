"""Filtered search: recall and throughput versus predicate selectivity.

The claims behind :mod:`repro.filter`:

* filtered results are exact w.r.t. the predicate on every back-end, and
  *fully* exact (recall 1.0 against brute force over the filtered
  subset) on exact back-ends — including the sharded composite, whose
  per-shard mask push-down feeds the same exact global merge;
* the planner keeps throughput sane across the selectivity range by
  switching strategy: brute-forcing the tiny surviving subset at low
  selectivity, masking candidate sets inline on partition indexes, and
  post-filtering with adaptive over-fetch elsewhere.

Results are written to ``benchmarks/results/bench_filter.txt`` (human
readable) and ``benchmarks/results/bench_filter.json`` (machine readable;
the start of the perf trajectory for the filtered workload).  The module
doubles as a CI smoke test:

    python benchmarks/bench_filter.py --smoke
"""

from __future__ import annotations

import json
import os
import sys

from repro.datasets import sift_like
from repro.eval import filter_selectivity_curve, format_table
from repro.filter import Range, random_attribute_store

K = 10

FULL_SCALE = dict(n_points=20_000, n_queries=256, dim=64, n_clusters=12)
SMOKE_SCALE = dict(n_points=800, n_queries=32, dim=16, n_clusters=4)

#: (registry name, construction params, request probes)
BACKENDS = [
    ("bruteforce", {}, None),
    ("kmeans", dict(n_bins=32, seed=0), 8),
    ("ivf-flat", dict(n_lists=32, seed=0), 8),
    ("sharded-bruteforce", dict(n_shards=4), None),
    # quantized backends: probes reaches them as the re-rank budget
    ("sq8", dict(), 40),
    (
        "pq-adc",
        dict(n_subspaces=8, n_codewords=64, kmeans_iterations=5, seed=0),
        400,
    ),
]

#: price is uniform on [0, 100), so a high bound of 100 * s selects ~s
SELECTIVITIES = (0.01, 0.1, 0.5, 1.0)


def selectivity_predicates():
    return [
        (f"sel={s}", Range("price", high=100.0 * s)) for s in SELECTIVITIES
    ]


def run_filter_benchmark(smoke: bool = False):
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    data = sift_like(gt_k=K, seed=7, **scale)
    store = random_attribute_store(data.n_points, seed=11)
    backends = BACKENDS
    if smoke:
        backends = [
            (name, {**params, **({"n_bins": 8} if "n_bins" in params else {}),
                    **({"n_lists": 8} if "n_lists" in params else {})}, probes)
            for name, params, probes in backends
        ]

    rows = []
    for name, params, probes in backends:
        points = filter_selectivity_curve(
            name,
            data,
            store,
            selectivity_predicates(),
            k=K,
            probes=probes,
            index_params=params,
        )
        for point in points:
            rows.append(
                {
                    "backend": name,
                    "label": point.label,
                    "selectivity": round(point.selectivity, 4),
                    "n_allowed": point.n_allowed,
                    "strategy": point.strategy,
                    "recall": round(point.recall, 4),
                    "qps": round(point.queries_per_second, 1),
                }
            )
    return rows, scale


def format_report(rows, scale) -> str:
    header = (
        f"filtered search on {scale['n_points']} points, dim={scale['dim']}, "
        f"{scale['n_queries']} queries, k={K}"
    )
    table = format_table(
        ["backend", "selectivity", "allowed", "strategy", "recall", "qps"],
        [
            [
                row["backend"],
                row["selectivity"],
                row["n_allowed"],
                row["strategy"],
                row["recall"],
                row["qps"],
            ]
            for row in rows
        ],
        title="recall / throughput vs predicate selectivity",
        float_format="{:.4f}",
    )
    return f"{header}\n\n{table}"


def write_results(rows, scale, smoke: bool, out_dir=None) -> str:
    # Smoke runs get their own suffix so CI (and anyone running --smoke
    # locally) never clobbers the committed full-scale trajectory.
    from conftest import smoke_artifact_guard

    results_dir = out_dir or os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    suffix = "_smoke" if smoke else ""
    text = format_report(rows, scale)
    text_path = os.path.join(results_dir, f"bench_filter{suffix}.txt")
    smoke_artifact_guard(text_path, smoke=smoke)
    with open(text_path, "w") as handle:
        handle.write(text + "\n")
    payload = {
        "benchmark": "bench_filter",
        "smoke": bool(smoke),
        "k": K,
        "scale": dict(scale),
        "selectivities": list(SELECTIVITIES),
        "rows": rows,
    }
    json_path = os.path.join(results_dir, f"bench_filter{suffix}.json")
    smoke_artifact_guard(json_path, smoke=smoke)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return json_path


def check_exactness(rows) -> None:
    """Exact back-ends must reach recall 1.0 at every selectivity."""
    for row in rows:
        if row["backend"] in ("bruteforce", "sharded-bruteforce"):
            assert row["recall"] == 1.0, row


def test_filtered_search(benchmark, report):
    from conftest import run_once

    rows, scale = run_once(benchmark, run_filter_benchmark)
    report("bench_filter", format_report(rows, scale))
    write_results(rows, scale, smoke=False)
    check_exactness(rows)


def main(argv=None) -> int:
    from conftest import resolve_out_dir

    argv = sys.argv[1:] if argv is None else argv
    out_dir, argv = resolve_out_dir(argv)
    smoke = "--smoke" in argv
    rows, scale = run_filter_benchmark(smoke=smoke)
    print(format_report(rows, scale))
    json_path = write_results(rows, scale, smoke, out_dir=out_dir)
    check_exactness(rows)
    print(f"\nwritten to {json_path} (and bench_filter.txt alongside)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
