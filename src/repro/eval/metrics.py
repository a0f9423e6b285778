"""Retrieval quality metrics.

The paper's primary metric is k-NN accuracy (Eq. 1): the fraction of the
true ``k`` nearest neighbours present among the ``k`` points an algorithm
returns.  :func:`candidate_stats` measures the partition itself: the
candidate set size |C| (the paper's x-axis) and the ceiling that set puts
on any re-ranking.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.validation import as_query_matrix


def knn_accuracy(retrieved: np.ndarray, ground_truth: np.ndarray, k: int) -> float:
    """k-NN accuracy (Eq. 1) averaged over queries.

    Parameters
    ----------
    retrieved:
        ``(n_queries, >= k)`` indices returned by the algorithm (``-1`` for
        padding when fewer than ``k`` points were found).
    ground_truth:
        ``(n_queries, >= k)`` true nearest neighbour indices, closest first.
    k:
        Number of neighbours scored.
    """
    retrieved = np.asarray(retrieved)
    ground_truth = np.asarray(ground_truth)
    if retrieved.ndim != 2 or ground_truth.ndim != 2:
        raise ValidationError("retrieved and ground_truth must be 2-D arrays")
    if retrieved.shape[0] != ground_truth.shape[0]:
        raise ValidationError("retrieved and ground_truth must have one row per query")
    if ground_truth.shape[1] < k:
        raise ValidationError(f"ground truth has fewer than k={k} columns")
    if retrieved.shape[1] < k:
        raise ValidationError(f"retrieved has fewer than k={k} columns")
    hits = 0
    for row_retrieved, row_truth in zip(retrieved[:, :k], ground_truth[:, :k]):
        truth_set = set(int(x) for x in row_truth)
        hits += sum(1 for x in row_retrieved if int(x) in truth_set)
    return hits / float(retrieved.shape[0] * k)


def candidate_stats(
    index, queries: np.ndarray, ground_truth: np.ndarray, k: int, n_probes: int
) -> Tuple[float, float]:
    """Mean |C| and the candidate ceiling of a routed index at ``n_probes``.

    A query's candidate set is the rows of its routed bins
    (``index.route``), so |C| is the sum of their sizes, and a true
    neighbour is a candidate exactly when its bin is among them.  The
    ceiling is the fraction of the true ``k`` nearest neighbours that are
    candidates: the best accuracy any re-ranking could reach, i.e. the
    quality of the partition itself.
    """
    queries = as_query_matrix(queries, index.dim)
    ground_truth = np.asarray(ground_truth)
    if queries.shape[0] != ground_truth.shape[0]:
        raise ValidationError("queries and ground_truth must have one row per query")
    if ground_truth.shape[1] < k:
        raise ValidationError(f"ground truth has fewer than k={k} columns")
    sizes = np.zeros(ground_truth.shape[0], dtype=np.int64)
    hits = 0
    for partition, rows, ranked in index.route(queries, n_probes):
        sizes[rows] = partition.bin_sizes()[ranked].sum(axis=1)
        probed = np.zeros((len(rows), partition.n_bins), dtype=bool)
        at = np.arange(len(rows))[:, None]
        probed[at, ranked] = True
        hits += int(probed[at, partition.assignments[ground_truth[rows, :k]]].sum())
    return float(sizes.mean()), hits / float(ground_truth.shape[0] * k)
