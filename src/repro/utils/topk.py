"""The library's top-k selections: one rule per kind of answer.

* :func:`select` — positions of the ``k`` smallest scores, ties in input
  order.  Partition answers, re-ranks, bin rankings and the k'-NN matrix
  are defined by candidate position.
* :func:`merge` — the ``k`` smallest (score, id) pairs, ties to the
  smaller id.  The sharded merge is defined by id, so it does not depend
  on the order the shards are visited in.
* :func:`fold` — :func:`merge` for a few new (score, position) pairs per
  row.  The tiled exact scan (:func:`~repro.utils.distances.pairwise_topk`)
  walks columns in order, so position order is :func:`select`'s order.
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
    if scores.shape[0] == 1:  # one row: the 1-D path, without the batched bookkeeping
        return _select_row(scores[0], k)[None, :]
    return _select_rows(scores, k)


def _select_row(dists: np.ndarray, k: int) -> np.ndarray:
    if dists.size <= max(k, _WHOLE_SORT_1D):
        return np.argsort(dists, kind="stable")[:k]
    # The k smallest are among the entries up to the k-th smallest value;
    # a stable sort of just those, in position order, keeps the tie rule.
    # NaN sorts last, so a NaN k-th value means the row holds fewer than k
    # numbers and every entry is needed.
    kth = np.partition(dists, k - 1)[k - 1]
    if np.isnan(kth):
        return np.argsort(dists, kind="stable")[:k]
    near = np.flatnonzero(dists <= kth)
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
    # smallest (NaN included), so a row tied at the boundary, or holding
    # fewer than k numbers, falls back to the full stable sort.
    worst = chosen.max(axis=1)
    tied = (dists[rows[:, 0], part[:, k]] <= worst) | np.isnan(worst)
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
    rows = np.arange(ids.shape[0])[:, None]
    return ids[rows, order], scores[rows, order]


def fold(
    ids: np.ndarray,
    scores: np.ndarray,
    rows: np.ndarray,
    new_ids: np.ndarray,
    new_scores: np.ndarray,
) -> None:
    """Fold candidates into every row's kept ``(ids, scores)``, in place.

    ``ids`` / ``scores`` are ``(n_rows, k)``.  Candidate ``j`` belongs to
    row ``rows[j]``; a row's candidates come in increasing id order, and
    no candidate score is NaN.  Each touched row keeps the :func:`merge`
    of its kept pairs and its candidates.  The candidates are first cut to
    their own ``k`` best by :func:`select`, which breaks ties by position
    and so, here, by id.  Rows are padded to the widest one with (largest
    id, NaN score) pairs, which sort after every real pair, so a pad never
    displaces one.
    """
    k = ids.shape[1]
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    counts = np.bincount(rows)
    touched = np.flatnonzero(counts)
    counts = counts[touched]
    slot = np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    segment = np.repeat(np.arange(touched.shape[0]), counts)
    width = int(counts.max())
    padded_ids = np.full((touched.shape[0], width), np.iinfo(np.int64).max)
    padded_scores = np.full((touched.shape[0], width), np.nan)
    padded_ids[segment, slot] = new_ids[order]
    padded_scores[segment, slot] = new_scores[order]
    best = select(padded_scores, min(k, width))
    at = np.arange(touched.shape[0])[:, None]
    ids[touched], scores[touched] = merge(
        np.hstack([ids[touched], padded_ids[at, best]]),
        np.hstack([scores[touched], padded_scores[at, best]]),
        k,
    )
