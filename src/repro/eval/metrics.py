"""Retrieval quality metrics.

The paper's primary metric is k-NN accuracy (Eq. 1): the fraction of the
true ``k`` nearest neighbours present among the ``k`` points an algorithm
returns.  ``candidate_recall`` measures the ceiling imposed by a candidate
set before re-ranking (used to analyse partition quality in isolation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..utils.exceptions import ValidationError


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


def candidate_recall(
    candidate_sets: Sequence[np.ndarray], ground_truth: np.ndarray, k: int
) -> float:
    """Fraction of true k-NN contained in each query's candidate set.

    This is the best accuracy any re-ranking step could achieve, i.e. the
    quality of the partition itself.
    """
    ground_truth = np.asarray(ground_truth)
    if len(candidate_sets) != ground_truth.shape[0]:
        raise ValidationError("need one candidate set per query")
    if ground_truth.shape[1] < k:
        raise ValidationError(f"ground truth has fewer than k={k} columns")
    hits = 0
    for candidates, truth in zip(candidate_sets, ground_truth[:, :k]):
        candidate_set = set(int(x) for x in np.asarray(candidates).reshape(-1))
        hits += sum(1 for x in truth if int(x) in candidate_set)
    return hits / float(ground_truth.shape[0] * k)


def average_candidate_size(candidate_sets: Sequence[np.ndarray]) -> float:
    """Mean candidate-set size |C| over queries (the paper's x-axis)."""
    if not len(candidate_sets):
        raise ValidationError("candidate_sets must be non-empty")
    return float(np.mean([len(np.asarray(c).reshape(-1)) for c in candidate_sets]))
