"""Workload ``scan_batch``: the read path without sockets, JSON or cache.

In-process ``SearchService.search_batch`` (cache off) over an unsharded
``sq8`` index, 256-query batches, every query unique.  The quantized scan
and its exact re-rank do nearly all the work, so kernel, tiling or
multi-process-shard changes must show here and nowhere under ``net.*``; a
wire-format change must leave this workload flat.

``query_p50_ms`` is the median wall time of one 256-query ``search_batch``
call (the unit a caller of this path waits for).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from datagen import Corpus, VectorStream, clustered_corpus
from harness import (
    K,
    LADDER_MIN_ITEMS,
    N_ROUNDS,
    Spans,
    finish,
    median,
    out_dir_for,
    peak_rss_mb_self,
    recall_at_k,
    reset_peak_rss,
    run_ladder,
    run_rounds,
)

SCALES = {
    "full": dict(n=100_000, dim=96, batch=256, n_truth=256, n_single=40, rounds=N_ROUNDS),
    "smoke": dict(n=4000, dim=32, batch=64, n_truth=64, n_single=10, rounds=1),
}
RECALL_FLOOR = 0.95

LAYER_METRICS = frozenset({
    "datasets.generate_s", "datasets.ground_truth_s", "quant.build_s", "quant.code_mb",
    "quant.resident_mb", "quant.rerank_candidates_per_query", "quant.batch_us_per_query",
    "quant.query_us", "service.overhead_us", "service.batch_vs_index_ratio",
})


@dataclass
class State:
    corpus: Corpus
    index: Any
    service: Any
    build_s: float


def set_up(args, scale) -> State:
    from repro.api import make_index
    from repro.service import SearchService

    corpus = clustered_corpus(args.seed, scale["n"], scale["dim"], scale["n_truth"])
    index = make_index("sq8")
    started = time.perf_counter()
    index.build(corpus.base)
    build_s = time.perf_counter() - started
    service = SearchService(index, cache_size=0)
    warm = VectorStream(corpus.base, [args.seed, 3], block=scale["batch"])
    for _ in range(2):
        service.search_batch(warm.take(scale["batch"]), k=K)
    return State(corpus, index, service, build_s)


def tear_down(state: State) -> None:
    state.service.close()


def well_formed(result, rows: int) -> bool:
    return result.ids.shape == (rows, K) and bool((result.ids >= 0).all())


def run_end_to_end(args, scale, out: Path) -> int:
    rounds = scale["rounds"]
    peak_reset = []

    def measure(state: State, index: int) -> Dict[str, Any]:
        """One slice of the window: batch calls back to back on this state."""
        stream = VectorStream(
            state.corpus.base, [args.seed, 10, index], block=scale["batch"] * 8
        )
        peak_reset.append(reset_peak_rss())
        latencies: List[float] = []
        failed = 0
        start = time.perf_counter()
        stop_at = start + args.seconds / rounds
        while time.perf_counter() < stop_at:
            batch = stream.take(scale["batch"])
            called = time.perf_counter()
            result = state.service.search_batch(batch, k=K)
            if well_formed(result, scale["batch"]):
                latencies.append((time.perf_counter() - called) * 1e3)
            else:
                failed += 1
        # The slice ends when its last call returns, so the rate has no
        # whole-batch rounding.
        elapsed = time.perf_counter() - start
        return {
            "latencies": latencies,
            "failed": failed,
            "qps": len(latencies) * scale["batch"] / elapsed,
            "peak_rss_mb": peak_rss_mb_self(),
        }

    state, setups, builds, slices = run_rounds(
        rounds, lambda: set_up(args, scale), measure, tear_down
    )
    answers = state.service.search_batch(state.corpus.queries, k=K)
    recall = recall_at_k(answers.ids, state.corpus.truth)
    tear_down(state)
    calls = sum(len(s["latencies"]) for s in slices)
    failed = sum(s["failed"] for s in slices)
    metrics = {
        "setup_s": median(setups),
        "build_s": median(builds),
        "query_qps": median(s["qps"] for s in slices),
        "query_p50_ms": median(median(s["latencies"]) for s in slices),
        "recall_at_10": recall,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in slices),
    }
    details = {
        "rounds": rounds,
        "batch_calls": calls,
        "batch_rows": scale["batch"],
        "setup_samples_s": setups,
        "build_samples_s": builds,
        "qps_samples": [s["qps"] for s in slices],
        "peak_rss_excludes_setup": all(peak_reset),
    }
    return finish(
        args, out, metrics=metrics, attempted=calls + failed, failed=failed,
        checks={"recall_floor": recall >= RECALL_FLOOR}, details=details,
    )


def run_traced(args, scale, out: Path) -> int:
    """Two rungs over the same batches: the bare index, then the service."""
    spans = Spans()
    state = set_up(args, scale)
    stream = VectorStream(state.corpus.base, [args.seed, 4], block=scale["batch"])
    batches: List[np.ndarray] = []

    def batch(item: int) -> np.ndarray:
        while len(batches) <= item:
            batches.append(stream.take(scale["batch"]).astype(np.float64))
        return batches[item]

    pushed = run_ladder(
        spans,
        [
            ("quant", lambda i: state.index.batch_query(batch(i), K)),
            ("service", lambda i: state.service.search_batch(batch(i), k=K)),
        ],
        10_000,
        budget_seconds=float(args.seconds),
    )
    singles = stream.take(scale["n_single"]).astype(np.float64)
    single_us = []
    for row in singles:
        called = time.perf_counter()
        state.index.batch_query(row[None, :], K)
        single_us.append((time.perf_counter() - called) * 1e6)
    spans.flush(out / "spans.jsonl")
    stats = state.index.stats()
    quant_us, service_us = spans.median_us("quant"), spans.median_us("service")
    metrics = {
        "datasets.generate_s": state.corpus.generate_s,
        "datasets.ground_truth_s": state.corpus.ground_truth_s,
        "quant.build_s": state.build_s,
        "quant.code_mb": stats["code_bytes"] / 2**20,
        "quant.resident_mb": stats["resident_bytes"] / 2**20,
        "quant.rerank_candidates_per_query": min(stats["rerank_factor"] * K, scale["n"]),
        "quant.batch_us_per_query": quant_us / scale["batch"],
        "quant.query_us": median(single_us),
        "service.overhead_us": spans.self_us("service", "quant") / scale["batch"],
        "service.batch_vs_index_ratio": service_us / quant_us,
    }
    details = {
        "ladder_batches": pushed,
        "quant_share_of_search_batch": quant_us / service_us,
        "search_batch_us_per_query": service_us / scale["batch"],
    }
    tear_down(state)
    return finish(
        args, out, metrics=metrics, attempted=2 * pushed, failed=0,
        checks={"ladder_ran": pushed >= LADDER_MIN_ITEMS}, details=details,
        layer_metrics=LAYER_METRICS,
    )


def run(args) -> int:
    scale = SCALES["smoke" if args.smoke else "full"]
    out = out_dir_for(args)
    return run_traced(args, scale, out) if args.trace else run_end_to_end(args, scale, out)
