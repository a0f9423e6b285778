"""Clustering quality metrics.

The paper's Table 5 shows clustering results visually; this reproduction
quantifies the same comparison with two standard external metrics
(Adjusted Rand Index, Normalised Mutual Information) against the
generating labels of the toy datasets.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_labels


def _contingency(labels_true: np.ndarray, labels_pred: np.ndarray) -> np.ndarray:
    true_values, true_idx = np.unique(labels_true, return_inverse=True)
    pred_values, pred_idx = np.unique(labels_pred, return_inverse=True)
    table = np.zeros((true_values.size, pred_values.size), dtype=np.int64)
    np.add.at(table, (true_idx, pred_idx), 1)
    return table


def _pairs(counts: np.ndarray) -> int:
    """Unordered pairs inside each count, summed as an exact integer."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def adjusted_rand_index(labels_true, labels_pred) -> float:
    """Adjusted Rand Index in [-1, 1]; 1 = identical partitions, 0 = chance."""
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, len(labels_true), name="labels_pred")
    table = _contingency(labels_true, labels_pred)
    n = labels_true.shape[0]
    sum_comb_cells = _pairs(table)
    sum_comb_rows = _pairs(table.sum(axis=1))
    sum_comb_cols = _pairs(table.sum(axis=0))
    total_pairs = n * (n - 1) // 2
    expected = sum_comb_rows * sum_comb_cols / total_pairs if total_pairs else 0.0
    max_index = 0.5 * (sum_comb_rows + sum_comb_cols)
    denominator = max_index - expected
    if denominator == 0:
        return 1.0 if sum_comb_cells == max_index else 0.0
    return float((sum_comb_cells - expected) / denominator)


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-(probabilities * np.log(probabilities)).sum())


def normalized_mutual_information(labels_true, labels_pred) -> float:
    """NMI in [0, 1] with arithmetic-mean normalisation."""
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, len(labels_true), name="labels_pred")
    table = _contingency(labels_true, labels_pred).astype(np.float64)
    n = table.sum()
    if n == 0:
        return 0.0
    joint = table / n
    row_marginal = joint.sum(axis=1, keepdims=True)
    col_marginal = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    mutual_information = float(
        (joint[mask] * np.log(joint[mask] / (row_marginal @ col_marginal)[mask])).sum()
    )
    h_true = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))
    normalizer = 0.5 * (h_true + h_pred)
    if normalizer == 0:
        return 1.0 if mutual_information == 0 else 0.0
    return float(np.clip(mutual_information / normalizer, 0.0, 1.0))

