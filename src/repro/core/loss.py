"""The USP loss function (Section 4.2.2).

The loss scores a candidate partition without any ground-truth labels.  It
has two differentiable terms computed over a mini-batch of points:

* **Quality cost** ``U(R)`` (Eq. 2 / Eq. 10): for each batch point ``p_i``,
  the cross entropy between the model's bin distribution ``M(p_i)`` and the
  empirical distribution ``B_k'(p_i)`` of its ``k'`` nearest neighbours over
  the bins (the neighbours' own most-likely bins, treated as constants).
  Minimising it pulls a point into the same bin(s) as its neighbours, which
  directly maximises the chance that a query's candidate set contains its
  true nearest neighbours.

* **Balance / computation cost** ``S(R)`` (Eq. 12–13): the negated sum of
  the top ``batch/m`` softmax probabilities in every bin column.  When every
  bin can claim ``batch/m`` points with high confidence the partition is
  balanced, which keeps candidate sets (and therefore query time) small.

The combined objective is ``U(R) + eta * S(R)`` (Eq. 5).  Per-point weights
(Eq. 14) plug into the quality term to support the boosting ensemble.

This module holds the loss's targets and its logged breakdown; the loss
itself and its gradient are computed in closed form by
:func:`repro.core.trainer.loss_and_gradients`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import ValidationError


def neighbor_bin_distribution(
    neighbor_bins: np.ndarray,
    n_bins: int,
    *,
    soft: bool = True,
) -> np.ndarray:
    """Empirical bin distribution of each point's neighbours (Eq. 9).

    Parameters
    ----------
    neighbor_bins:
        ``(batch, k')`` integer array: the most-likely bin of each of the
        ``k'`` neighbours of every batch point.
    n_bins:
        Number of bins ``m``.
    soft:
        If True return the full proportion vector ``B_k'(p_i)`` (the paper's
        soft target).  If False return a one-hot row for the single majority
        bin (used by the hard-label ablation).

    Returns
    -------
    ``(batch, n_bins)`` rows summing to one.
    """
    neighbor_bins = np.asarray(neighbor_bins, dtype=np.int64)
    if neighbor_bins.ndim != 2:
        raise ValidationError("neighbor_bins must be 2-dimensional (batch, k')")
    if neighbor_bins.min(initial=0) < 0 or neighbor_bins.max(initial=0) >= n_bins:
        raise ValidationError("neighbor_bins contains bin ids outside [0, n_bins)")
    batch, k_prime = neighbor_bins.shape
    counts = np.zeros((batch, n_bins), dtype=np.float64)
    rows = np.repeat(np.arange(batch), k_prime)
    np.add.at(counts, (rows, neighbor_bins.reshape(-1)), 1.0)
    if not soft:
        majority = counts.argmax(axis=1)
        counts = np.zeros_like(counts)
        counts[np.arange(batch), majority] = 1.0
        return counts
    return counts / float(k_prime)


@dataclass
class LossBreakdown:
    """The scalar pieces of one loss evaluation (for logging and tests)."""

    total: float
    quality: float
    balance: float
