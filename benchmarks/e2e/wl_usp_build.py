"""Workload ``usp_build``: the paper's pipeline, no serving stack at all.

``mnist-like`` points -> ``build_knn_matrix`` -> ``usp`` with 16 bins
trained -> repeated ``batch_query`` passes at ``n_probes=1``.  The only
workload where ``core`` / ``nn`` do the work.  It holds still what the
paper claims — offline training time (``build_s``) and accuracy against
candidate-set size (``recall_at_10`` read together with
``candidate_fraction``) — next to a K-means row built on the same data
(traced run, ``baselines.kmeans_*``), so a trainer speed-up or a fidelity
fix has a before/after row.  The clustered ``sift-like`` stand-in is
useless here: K-means reaches recall 1.0 on it with one probe.

``query_p50_ms`` is the median wall time of one 100-query ``batch_query``
call.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List

import numpy as np

from datagen import manifold_corpus
from harness import (
    K,
    N_ROUNDS,
    finish,
    median,
    out_dir_for,
    peak_rss_mb_self,
    recall_at_k,
    reset_peak_rss,
    segment_rate,
)

SCALES = {
    "full": dict(n=10_000, dim=128, n_queries=1000, chunk=100, setups=N_ROUNDS, usp={}),
    "smoke": dict(
        n=1500, dim=32, n_queries=200, chunk=50, setups=1,
        usp=dict(epochs=3, hidden_dim=32),
    ),
}
N_BINS = 16
#: far below what either partitioner reaches; catches a broken index, not a drift
RECALL_FLOOR = 0.5

LAYER_METRICS = frozenset({
    "datasets.generate_s", "datasets.ground_truth_s", "core.knn_matrix_s", "core.train_s",
    "core.train_iterations", "nn.step_ms", "core.final_loss", "core.bin_imbalance",
    "core.num_parameters", "core.rank_bins_us", "core.rerank_us", "core.recall_at_10",
    "core.candidate_fraction", "baselines.kmeans_build_s",
    "baselines.kmeans_recall_at_10", "baselines.kmeans_candidate_fraction",
})


def make_usp(args, scale):
    from repro.api import make_index

    return make_index("usp", n_bins=N_BINS, seed=args.seed, **scale["usp"])


def candidate_fraction(index, queries: np.ndarray) -> float:
    sizes = [len(c) for c in index.candidate_sets(queries, n_probes=1)]
    return float(np.mean(sizes)) / index.n_points


def run_end_to_end(args, scale, out: Path) -> int:
    # Set-up is data generation and ground truth only (the build is
    # build_s); repeat it so setup_s is a median, not one sample.
    setups = []
    for _ in range(scale["setups"]):
        started = time.perf_counter()
        corpus = manifold_corpus(args.seed, scale["n"], scale["dim"], scale["n_queries"])
        setups.append(time.perf_counter() - started)
    peak_reset = reset_peak_rss()
    index = make_usp(args, scale)
    started = time.perf_counter()
    index.build(corpus.base)
    build_s = time.perf_counter() - started

    chunks = [
        corpus.queries[i : i + scale["chunk"]]
        for i in range(0, scale["n_queries"], scale["chunk"])
    ]
    first_pass = [index.batch_query(chunk, K, n_probes=1)[0] for chunk in chunks]
    latencies: List[float] = []
    ends: List[float] = []
    weights: List[float] = []
    failed = 0
    start = time.perf_counter()
    stop_at = start + args.seconds
    while time.perf_counter() < stop_at:
        for chunk, expected in zip(chunks, first_pass):
            called = time.perf_counter()
            ids, _ = index.batch_query(chunk, K, n_probes=1)
            ended = time.perf_counter()
            # Same index, same queries: the answer may not change.
            if np.array_equal(ids, expected):
                latencies.append((ended - called) * 1e3)
                ends.append(ended)
                weights.append(float(chunk.shape[0]))
            else:
                failed += 1
    recall = recall_at_k(np.vstack(first_pass), corpus.truth)
    metrics = {
        "setup_s": median(setups),
        "build_s": build_s,
        "query_qps": segment_rate(ends, weights, start, args.seconds, scale["setups"]),
        "query_p50_ms": median(latencies),
        "recall_at_10": recall,
        "candidate_fraction": candidate_fraction(index, corpus.queries),
        "peak_rss_mb": peak_rss_mb_self(),
    }
    details = {
        "batch_calls": len(latencies),
        "batch_rows": scale["chunk"],
        "train_iterations": index.history.n_iterations,
        "setup_samples_s": setups,
        "peak_rss_excludes_setup": peak_reset,
    }
    return finish(
        args, out, metrics=metrics, attempted=len(latencies) + failed, failed=failed,
        checks={"recall_floor": recall >= RECALL_FLOOR}, details=details,
    )


def per_query_us(call, n_queries: int, chunk: int, seconds: float) -> float:
    """Median time per query of ``call(lo, hi)`` over query slices, for a time budget."""
    samples = []
    stop_at = time.perf_counter() + seconds
    while not samples or time.perf_counter() < stop_at:
        for lo in range(0, n_queries, chunk):
            hi = min(lo + chunk, n_queries)
            called = time.perf_counter()
            call(lo, hi)
            samples.append((time.perf_counter() - called) * 1e6 / (hi - lo))
    return median(samples)


def run_traced(args, scale, out: Path) -> int:
    from repro.api import make_index
    from repro.core import build_knn_matrix, rerank_candidates

    corpus = manifold_corpus(args.seed, scale["n"], scale["dim"], scale["n_queries"])
    index = make_usp(args, scale)
    started = time.perf_counter()
    knn = build_knn_matrix(corpus.base, index.config.k_prime, metric=index.config.metric)
    knn_matrix_s = time.perf_counter() - started
    index.build(corpus.base, knn=knn)
    history = index.history
    sizes = index.bin_sizes()

    started = time.perf_counter()
    kmeans = make_index("kmeans", n_bins=N_BINS, seed=args.seed).build(corpus.base)
    kmeans_build_s = time.perf_counter() - started
    kmeans_ids, _ = kmeans.batch_query(corpus.queries, K, n_probes=1)

    budget = args.seconds / 2.0
    queries = corpus.queries
    candidates = index.candidate_sets(queries, n_probes=1)
    usp_ids, _ = index.batch_query(queries, K, n_probes=1)

    metrics = {
        "datasets.generate_s": corpus.generate_s,
        "datasets.ground_truth_s": corpus.ground_truth_s,
        "core.knn_matrix_s": knn_matrix_s,
        "core.train_s": history.seconds,
        "core.train_iterations": history.n_iterations,
        "nn.step_ms": 1e3 * history.seconds / history.n_iterations,
        "core.final_loss": float(np.mean(history.total[-10:])),
        "core.bin_imbalance": float(sizes.max() / sizes.mean()),
        "core.num_parameters": index.num_parameters(),
        "core.rank_bins_us": per_query_us(
            lambda lo, hi: index.top_bins(queries[lo:hi], 1),
            len(queries), scale["chunk"], budget,
        ),
        "core.rerank_us": per_query_us(
            lambda lo, hi: rerank_candidates(
                corpus.base, queries[lo:hi], candidates[lo:hi], K, metric=index.metric
            ),
            len(queries), scale["chunk"], budget,
        ),
        # The USP row beside the K-means row: only meaningful as a pair.
        "core.recall_at_10": recall_at_k(usp_ids, corpus.truth),
        "core.candidate_fraction": candidate_fraction(index, queries),
        "baselines.kmeans_build_s": kmeans_build_s,
        "baselines.kmeans_recall_at_10": recall_at_k(kmeans_ids, corpus.truth),
        "baselines.kmeans_candidate_fraction": candidate_fraction(kmeans, corpus.queries),
    }
    return finish(
        args, out, metrics=metrics, attempted=2, failed=0,
        checks={"trained": history.n_iterations > 0}, details={},
        layer_metrics=LAYER_METRICS,
    )


def run(args) -> int:
    scale = SCALES["smoke" if args.smoke else "full"]
    out = out_dir_for(args)
    return run_traced(args, scale, out) if args.trace else run_end_to_end(args, scale, out)
