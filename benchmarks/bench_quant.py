"""Quantized hot path: QPS/recall frontier vs float32 brute force, memmap re-rank.

The claims behind :mod:`repro.quant`:

* the compressed scan buys throughput — at benchmark scale the int8
  scalar-quantized scan (``sq8``) answers at a multiple of the
  brute-force QPS while the exact re-rank keeps recall@10 at or above
  0.9 (the frontier below sweeps the over-fetch budget, the knob that
  trades the two);
* the memmapped re-rank keeps the resident footprint at the codes —
  after ``save``/``load`` the full-precision matrix is a file-backed
  mapping, so the float32 footprint *exceeds* the resident bytes of
  the serving quantized index (asserted on the loaded index's stats).

Results are written to ``benchmarks/results/bench_quant.txt`` (human
readable) and ``benchmarks/results/bench_quant.json`` (machine readable,
same shape as the other bench JSONs).  The module doubles as a CI smoke
test:

    python benchmarks/bench_quant.py --smoke

runs the whole pipeline at a tiny scale so the script can never rot
(perf ratios are only asserted at full scale — smoke runners are noisy).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

from repro.api import load_index, make_index
from repro.datasets import sift_like
from repro.eval import format_table, recall_at_k

K = 10

FULL_SCALE = dict(n_points=40_000, n_queries=256, dim=96, n_clusters=16)
SMOKE_SCALE = dict(n_points=1_500, n_queries=48, dim=32, n_clusters=6)

#: (registry name, construction params, over-fetch budgets to sweep)
FULL_BACKENDS = [
    ("sq8", dict(), (20, 40, 80)),
    (
        "pq-adc",
        dict(n_subspaces=12, n_codewords=128, kmeans_iterations=8, seed=0),
        (400, 1600, 4000),
    ),
]
SMOKE_BACKENDS = [
    ("sq8", dict(), (20, 40)),
    (
        "pq-adc",
        dict(n_subspaces=8, n_codewords=32, kmeans_iterations=4, seed=0),
        (40, 160),
    ),
]

N_SHARDS = 4


def _qps(query_fn, n_queries: int, repeats: int):
    """Best-of-``repeats`` throughput of ``query_fn`` (returns qps, ids)."""
    best = None
    ids = None
    for _ in range(repeats):
        start = time.perf_counter()
        ids, _ = query_fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return n_queries / max(best, 1e-9), ids


def run_quant_benchmark(smoke: bool = False):
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    backends = SMOKE_BACKENDS if smoke else FULL_BACKENDS
    repeats = 2 if smoke else 3
    data = sift_like(gt_k=K, seed=11, **scale)

    # -- frontier: float32 brute force vs quantized scan + exact re-rank #
    rows = []
    bruteforce = make_index("bruteforce").build(data.base)
    bf_qps, ids = _qps(
        lambda: bruteforce.batch_query(data.queries, K), data.n_queries, repeats
    )
    rows.append(
        {
            "section": "frontier",
            "backend": "bruteforce",
            "rerank": None,
            "qps": round(bf_qps, 1),
            "recall": round(recall_at_k(ids, data.ground_truth, K), 4),
            "speedup": 1.0,
        }
    )
    built = {}
    for name, params, budgets in backends:
        index = make_index(name, **params).build(data.base)
        built[name] = index
        for rerank in budgets:
            qps, ids = _qps(
                lambda: index.batch_query(data.queries, K, rerank=rerank),
                data.n_queries,
                repeats,
            )
            rows.append(
                {
                    "section": "frontier",
                    "backend": name,
                    "rerank": rerank,
                    "qps": round(qps, 1),
                    "recall": round(recall_at_k(ids, data.ground_truth, K), 4),
                    "speedup": round(qps / bf_qps, 2),
                }
            )

    # -- sharded scan: the same comparison through scatter-gather ------- #
    for name, spec, params, probes in (
        ("sharded-bruteforce", "bruteforce", {}, None),
        ("sharded-sq8", "sq8", dict(), 40),
    ):
        sharded = make_index(
            "sharded", n_shards=N_SHARDS, spec=spec, shard_params=params
        ).build(data.base)
        qps, ids = _qps(
            lambda: sharded.batch_query(data.queries, K, probes=probes),
            data.n_queries,
            repeats,
        )
        rows.append(
            {
                "section": "sharded",
                "backend": name,
                "n_shards": N_SHARDS,
                "qps": round(qps, 1),
                "recall": round(recall_at_k(ids, data.ground_truth, K), 4),
            }
        )

    # -- memmap: the loaded index re-ranks from disk, not from RAM ------ #
    with tempfile.TemporaryDirectory() as tmp:
        for name in built:
            built[name].save(os.path.join(tmp, name))
            reloaded = load_index(os.path.join(tmp, name))
            stats = reloaded.stats()
            rows.append(
                {
                    "section": "memmap",
                    "backend": name,
                    "rerank_source": stats["rerank_source"],
                    "resident_bytes": stats["resident_bytes"],
                    "code_bytes": stats["code_bytes"],
                    "float32_bytes": stats["float32_bytes"],
                    "mapped_bytes": stats["mapped_bytes"],
                }
            )
    return rows, scale


def format_report(rows, scale) -> str:
    header = (
        f"quantized hot path on {scale['n_points']} points, "
        f"dim={scale['dim']}, {scale['n_queries']} queries, k={K}"
    )
    frontier = [r for r in rows if r["section"] == "frontier"]
    sharded = [r for r in rows if r["section"] == "sharded"]
    memmap = [r for r in rows if r["section"] == "memmap"]
    sections = [
        header,
        format_table(
            ["backend", "rerank", "qps", "recall@10", "speedup"],
            [
                [r["backend"], r["rerank"] or "-", r["qps"], r["recall"], r["speedup"]]
                for r in frontier
            ],
            title="QPS/recall frontier: quantized scan vs float32 brute force",
            float_format="{:.3f}",
        ),
        format_table(
            ["backend", "shards", "qps", "recall@10"],
            [[r["backend"], r["n_shards"], r["qps"], r["recall"]] for r in sharded],
            title=f"sharded scan at n_shards={N_SHARDS}",
            float_format="{:.3f}",
        ),
        format_table(
            ["backend", "source", "resident MB", "codes MB", "float32 MB", "mapped MB"],
            [
                [
                    r["backend"],
                    r["rerank_source"],
                    round(r["resident_bytes"] / 1e6, 2),
                    round(r["code_bytes"] / 1e6, 2),
                    round(r["float32_bytes"] / 1e6, 2),
                    round(r["mapped_bytes"] / 1e6, 2),
                ]
                for r in memmap
            ],
            title="loaded-index footprint: resident codes vs memmapped vectors",
            float_format="{:.2f}",
        ),
    ]
    return "\n\n".join(sections)


def write_results(rows, scale, smoke: bool, out_dir=None) -> str:
    from conftest import smoke_artifact_guard

    results_dir = out_dir or os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    suffix = "_smoke" if smoke else ""
    text = format_report(rows, scale)
    text_path = os.path.join(results_dir, f"bench_quant{suffix}.txt")
    smoke_artifact_guard(text_path, smoke=smoke)
    with open(text_path, "w") as handle:
        handle.write(text + "\n")
    payload = {
        "benchmark": "bench_quant",
        "smoke": bool(smoke),
        "k": K,
        "scale": dict(scale),
        "rows": rows,
    }
    json_path = os.path.join(results_dir, f"bench_quant{suffix}.json")
    smoke_artifact_guard(json_path, smoke=smoke)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return json_path


def check_quant(rows, smoke: bool) -> None:
    """The acceptance assertions (perf ratio only at full scale)."""
    frontier = [r for r in rows if r["section"] == "frontier"]
    quant = [r for r in frontier if r["backend"] != "bruteforce"]
    # some budget on the frontier clears the recall floor, on every backend
    for name in {r["backend"] for r in quant}:
        best = max(r["recall"] for r in quant if r["backend"] == name)
        assert best >= 0.9, f"{name} never reaches recall@10 >= 0.9: {frontier}"
    if not smoke:
        # the headline claim: >= 3x brute-force QPS at recall@10 >= 0.9
        eligible = [r for r in quant if r["recall"] >= 0.9]
        best = max(r["speedup"] for r in eligible)
        assert best >= 3.0, f"no quantized config reached 3x at recall 0.9: {frontier}"
    # the memmap claim holds at every scale: vectors are file-backed and
    # the float32 footprint exceeds what the serving path keeps resident
    memmap = [r for r in rows if r["section"] == "memmap"]
    assert memmap, "memmap section missing"
    for r in memmap:
        assert r["rerank_source"] == "memmap", r
        assert r["mapped_bytes"] >= r["float32_bytes"], r
        assert r["resident_bytes"] < r["float32_bytes"], r


def test_quant_frontier(benchmark, report):
    from conftest import run_once

    rows, scale = run_once(benchmark, run_quant_benchmark)
    report("bench_quant", format_report(rows, scale))
    write_results(rows, scale, smoke=False)
    check_quant(rows, smoke=False)


def main(argv=None) -> int:
    from conftest import resolve_out_dir

    argv = sys.argv[1:] if argv is None else argv
    out_dir, argv = resolve_out_dir(argv)
    smoke = "--smoke" in argv
    rows, scale = run_quant_benchmark(smoke=smoke)
    print(format_report(rows, scale))
    json_path = write_results(rows, scale, smoke, out_dir=out_dir)
    check_quant(rows, smoke=smoke)
    print(f"\nwritten to {json_path} (and bench_quant.txt alongside)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
