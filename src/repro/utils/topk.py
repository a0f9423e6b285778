"""The library's top-k selections: one rule per kind of answer.

* :func:`select` — positions of the ``k`` smallest scores, ties in input
  order.  Partition answers, re-ranks, bin rankings and the k'-NN matrix
  are defined by candidate position.
* :func:`merge` — the ``k`` smallest (score, id) pairs, ties to the
  smaller id.  The sharded merge is defined by id, so it does not depend
  on the order the shards are visited in.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# Rows this narrow are sorted whole; partitioning first pays off only once
# a row is wide next to ``k``.  Whole stable sort against partition-first,
# k=10, on one Xeon core: a 1-D row of 40 / 256 / 512 entries takes 2.2 / 6.2
# / 11.2 µs against 6.3 / 9.9 / 8.7 µs; 4,096 rows of 30 / 60 columns take
# 3.2 / 7.0 ms against 3.9 / 2.9 ms.
_WHOLE_SORT_1D = 256
WHOLE_SORT_PER_K = 3


def select(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``scores`` along the last axis, smallest first.

    Always ``np.argsort(scores, axis=-1, kind="stable")[..., :k]`` for a
    1-D or 2-D ``scores``: an exact tie goes to the earlier position.
    """
    if scores.ndim == 1:
        return _select_row(scores, k)
    return _select_rows(scores, k)


def _select_row(dists: np.ndarray, k: int) -> np.ndarray:
    if dists.size <= max(k, _WHOLE_SORT_1D):
        return np.argsort(dists, kind="stable")[:k]
    # The k smallest are among the entries up to the k-th smallest value;
    # a stable sort of just those, in position order, keeps the tie rule.
    near = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    return near[np.argsort(dists[near], kind="stable")[:k]]


def _select_rows(dists: np.ndarray, k: int) -> np.ndarray:
    if dists.shape[1] <= WHOLE_SORT_PER_K * k:
        return np.argsort(dists, axis=1, kind="stable")[:, :k]
    rows = np.arange(dists.shape[0])[:, None]
    part = np.argpartition(dists, k, axis=1)
    top = np.sort(part[:, :k], axis=1)
    chosen = dists[rows, top]
    nearest = top[rows, np.argsort(chosen, axis=1, kind="stable")]
    # argpartition picks arbitrarily among entries tied with the k-th
    # smallest, so a row tied at the boundary falls back to the full stable sort.
    tied = dists[rows[:, 0], part[:, k]] <= chosen.max(axis=1)
    if tied.any():
        nearest[tied] = np.argsort(dists[tied], axis=1, kind="stable")[:, :k]
    return nearest


def pad(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, scores)`` widened to ``k`` columns with ``-1`` / ``inf`` pairs."""
    short = k - ids.shape[1]
    ids = ids.astype(np.int64, copy=False)
    if short <= 0:
        return ids, scores
    return (
        np.pad(ids, ((0, 0), (0, short)), constant_values=-1),
        np.pad(scores, ((0, 0), (0, short)), constant_values=np.inf),
    )


def merge(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest (score, id) pairs of every row, as ``(ids, scores)``.

    Equal scores keep the smaller id.  Rows narrower than ``k`` are first
    padded with ``-1`` / ``inf`` pairs.
    """
    ids, scores = pad(ids, scores, k)
    order = np.lexsort((ids, scores))[:, :k]
    return np.take_along_axis(ids, order, axis=1), np.take_along_axis(scores, order, axis=1)
