"""Shard scaling: build cost per shard count, single vs sharded serving.

What :mod:`repro.shard` is measured on:

* the offline phase — what building N shards (one after the other)
  costs as N grows;
* the online phase keeps its answers — sharded ``batch_query`` merges to
  exactly the single-index result while splitting the scan.

Results are written to ``benchmarks/results/shard_scaling.txt`` (human
readable) and ``benchmarks/results/bench_shard.json`` (machine readable,
same shape as ``bench_filter.json``, so the perf trajectory is
scriptable).  The module doubles as a CI smoke test:

    python benchmarks/bench_shard.py --smoke

runs the whole pipeline at a tiny scale so the script can never rot.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from repro.api import make_index
from repro.datasets import sift_like
from repro.eval import format_table, shard_scaling_curve
from repro.service import QueryRequest, SearchService
from repro.shard import ShardedIndex

#: (build spec, shard factory params) — a trainable backend so the
#: offline phase has real work to do.
SHARD_SPEC = ("kmeans", dict(n_bins=32, seed=0, max_iterations=25))
SHARD_COUNTS = (1, 2, 4, 8)
K = 10

FULL_SCALE = dict(n_points=20_000, n_queries=512, dim=64, n_clusters=12)
SMOKE_SCALE = dict(n_points=600, n_queries=32, dim=16, n_clusters=4)


def run_shard_benchmark(smoke: bool = False):
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    shard_counts = (1, 2) if smoke else SHARD_COUNTS
    spec, params = SHARD_SPEC
    if smoke:
        params = dict(params, n_bins=4)
    data = sift_like(gt_k=K, seed=7, **scale)

    # -- one build per shard count (offline cost), served against the
    # single index (online: scatter-gather throughput) ------------------ #
    single = make_index(spec, **params).build(data.base)
    single_service = SearchService(single)
    request = QueryRequest(k=K, probes=4)
    single_batch = single_service.search_batch(data.queries, request)

    build_rows = []
    serve_rows = [
        ["single", 1, round(single_batch.queries_per_second)],
    ]
    for n_shards in shard_counts:
        sharded = ShardedIndex(
            n_shards, spec=spec, shard_params=params
        ).build(data.base)
        build_rows.append([n_shards, round(sharded.build_seconds, 3)])
        if n_shards == 1:
            continue
        service = SearchService(sharded)
        batch = service.search_batch(data.queries, request)
        serve_rows.append(
            ["sharded", n_shards, round(batch.queries_per_second)]
        )

    # quantized rider: the same scatter-gather over int8 shards — probes
    # reaches the children as the re-rank budget via IndexCapabilities
    quant_request = QueryRequest(k=K, probes=40)
    sharded_quant = ShardedIndex(max(shard_counts), spec="sq8").build(data.base)
    quant_service = SearchService(sharded_quant)
    quant_batch = quant_service.search_batch(data.queries, quant_request)
    serve_rows.append(
        ["sharded-sq8", max(shard_counts), round(quant_batch.queries_per_second)]
    )

    # -- merge correctness at benchmark scale (sift_like vectors are
    # continuous, so exact distance ties cannot perturb the comparison) -- #
    exact = make_index("bruteforce").build(data.base)
    sharded_exact = ShardedIndex(max(shard_counts)).build(data.base)
    expected, _ = exact.batch_query(data.queries, K)
    got, _ = sharded_exact.batch_query(data.queries, K)
    np.testing.assert_array_equal(expected, got)

    # -- end-to-end scaling curve (sweep harness) ----------------------- #
    curve = shard_scaling_curve(
        data,
        shard_counts,
        spec=spec,
        shard_params=params,
        k=K,
        probes=4,
    )
    curve_rows = [
        [
            p.n_shards,
            round(p.build_seconds, 3),
            round(p.queries_per_second),
            round(p.accuracy, 3),
        ]
        for p in curve
    ]
    return build_rows, serve_rows, curve_rows, scale


def format_report(build_rows, serve_rows, curve_rows, scale) -> str:
    cores = os.cpu_count() or 1
    header = (
        f"shard scaling on {scale['n_points']} points, dim={scale['dim']}, "
        f"{scale['n_queries']} queries, {cores} cpu core(s)"
    )
    sections = [
        header,
        format_table(
            ["shards", "build s"],
            build_rows,
            title="offline: shard build (one shard after the other)",
            float_format="{:.3f}",
        ),
        format_table(
            ["index", "shards", "qps"],
            serve_rows,
            title=f"online: batch_query throughput at k={K}, probes=4",
            float_format="{:.2f}",
        ),
        format_table(
            ["shards", "build s", "qps", "accuracy"],
            curve_rows,
            title="shard_scaling_curve (instrumented serving path)",
            float_format="{:.3f}",
        ),
    ]
    return "\n\n".join(sections)


def json_rows(build_rows, serve_rows, curve_rows) -> list:
    """The three report tables flattened into one machine-readable list."""
    rows = []
    for n_shards, build_s in build_rows:
        rows.append(
            {"section": "build", "n_shards": n_shards, "build_seconds": build_s}
        )
    for kind, n_shards, qps in serve_rows:
        rows.append(
            {"section": "serve", "index": kind, "n_shards": n_shards, "qps": qps}
        )
    for n_shards, build_s, qps, accuracy in curve_rows:
        rows.append(
            {
                "section": "curve",
                "n_shards": n_shards,
                "build_seconds": build_s,
                "qps": qps,
                "accuracy": accuracy,
            }
        )
    return rows


def write_results(build_rows, serve_rows, curve_rows, scale, smoke: bool, out_dir=None) -> str:
    from conftest import smoke_artifact_guard

    results_dir = out_dir or os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    suffix = "_smoke" if smoke else ""
    text = format_report(build_rows, serve_rows, curve_rows, scale)
    text_path = os.path.join(results_dir, f"shard_scaling{suffix}.txt")
    smoke_artifact_guard(text_path, smoke=smoke)
    with open(text_path, "w") as handle:
        handle.write(text + "\n")
    payload = {
        "benchmark": "bench_shard",
        "smoke": bool(smoke),
        "k": K,
        "scale": dict(scale),
        "rows": json_rows(build_rows, serve_rows, curve_rows),
    }
    # the smoke suffix keeps CI/local smoke runs from clobbering the
    # committed full-scale trajectory (same convention as the .txt)
    json_path = os.path.join(results_dir, f"bench_shard{suffix}.json")
    smoke_artifact_guard(json_path, smoke=smoke)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return json_path


def test_shard_scaling(benchmark, report):
    from conftest import run_once

    build_rows, serve_rows, curve_rows, scale = run_once(
        benchmark, run_shard_benchmark
    )
    report(
        "shard_scaling", format_report(build_rows, serve_rows, curve_rows, scale)
    )
    write_results(build_rows, serve_rows, curve_rows, scale, smoke=False)
    # Acceptance: the merge asserted exactness inside the run.


def main(argv=None) -> int:
    from conftest import resolve_out_dir

    argv = sys.argv[1:] if argv is None else argv
    out_dir, argv = resolve_out_dir(argv)
    smoke = "--smoke" in argv
    build_rows, serve_rows, curve_rows, scale = run_shard_benchmark(smoke=smoke)
    print(format_report(build_rows, serve_rows, curve_rows, scale))
    json_path = write_results(build_rows, serve_rows, curve_rows, scale, smoke, out_dir=out_dir)
    print(f"\nwritten to {json_path} (and shard_scaling.txt alongside)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
