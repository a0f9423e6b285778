"""Seeded inputs: the program under test only ever sees what is made here.

The same ``--seed`` gives the same corpus, the same held-out queries with
their exact answers, and the same request streams.  Generation and exact
ground truth go through ``repro.datasets`` and are timed separately
(``datasets.generate_s`` / ``datasets.ground_truth_s``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from harness import K


@dataclass
class Corpus:
    base: np.ndarray
    #: held-out queries whose exact ``K`` nearest neighbours are ``truth``
    queries: np.ndarray
    truth: np.ndarray
    generate_s: float
    ground_truth_s: float


def clustered_corpus(seed: int, n: int, dim: int, n_queries: int) -> Corpus:
    """Descriptor-like vectors: an uneven Gaussian mixture, float32 values."""
    from repro.datasets import compute_ground_truth, make_gaussian_mixture

    started = time.perf_counter()
    mixture = make_gaussian_mixture(
        n + n_queries,
        n_components=64,
        dim=dim,
        cluster_std_range=(0.6, 2.0),
        center_scale=6.0,
        seed=seed,
    )
    # float32 is what embedding stores hold; it also sets the JSON length
    # of every vector on the wire.
    points = mixture.points.astype(np.float32)
    order = np.random.default_rng([seed, 1]).permutation(n + n_queries)
    base, queries = points[order[:n]], points[order[n:]]
    generated = time.perf_counter()
    # Small blocks keep the distance matrix (block x n float64) out of the
    # peak-RSS reading of in-process workloads.
    truth = compute_ground_truth(base, queries, K, block_size=64)
    return Corpus(
        base=base,
        queries=queries,
        truth=truth,
        generate_s=generated - started,
        ground_truth_s=time.perf_counter() - generated,
    )


def manifold_corpus(seed: int, n: int, dim: int, n_queries: int) -> Corpus:
    """The paper pipeline's input: ``mnist_like`` points on a low-d manifold.

    ``mnist_like`` computes its ground truth internally, so that share is
    timed by a second, explicit ``compute_ground_truth`` call and
    subtracted from the total.
    """
    from repro.datasets import compute_ground_truth, mnist_like

    started = time.perf_counter()
    dataset = mnist_like(n_points=n, n_queries=n_queries, dim=dim, gt_k=K, seed=seed)
    total = time.perf_counter() - started
    started = time.perf_counter()
    truth = compute_ground_truth(dataset.base, dataset.queries, K)
    ground_truth_s = time.perf_counter() - started
    return Corpus(
        base=dataset.base,
        queries=dataset.queries,
        truth=truth,
        generate_s=max(total - ground_truth_s, 0.0),
        ground_truth_s=ground_truth_s,
    )


def noisy_rows(rng: np.random.Generator, base: np.ndarray, count: int) -> np.ndarray:
    """``count`` fresh vectors near random base rows (unique with certainty)."""
    rows = base[rng.integers(0, base.shape[0], size=count)]
    noise = rng.standard_normal((count, base.shape[1])).astype(np.float32)
    return rows + 0.5 * noise


class VectorStream:
    """An endless seeded supply of unique vectors, drawn in blocks."""

    def __init__(self, base: np.ndarray, seed_path, block: int = 512) -> None:
        self._rng = np.random.default_rng(list(seed_path))
        self._base = base
        self._block_size = block
        self._block = noisy_rows(self._rng, base, block)
        self._next = 0

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def take(self, count: int = 1) -> np.ndarray:
        if self._next + count > self._block.shape[0]:
            self._block = noisy_rows(self._rng, self._base, max(self._block_size, count))
            self._next = 0
        rows = self._block[self._next : self._next + count]
        self._next += count
        return rows
