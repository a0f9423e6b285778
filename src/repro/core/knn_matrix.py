"""The k'-NN matrix (Section 4.2.1).

The only preprocessing USP requires: for every point ``p_i`` in the dataset,
the indices of its ``k'`` true nearest neighbours.  It is the adjacency-list
representation of the k'-NN graph and is computed once, in a blocked
brute-force pass over the dataset.

For the Euclidean metrics the pass is a *certified shortlist* self-join:
float32 arithmetic only proposes ``k' + 8`` candidates per point; what is
returned is decided by float64 difference-form distances, and only for
rows where a rounding-error bound proves no point off the shortlist could
be nearer.  The rest are scored again in float64 under the same certificate,
and what that cannot prove either is compared against every other point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..utils.distances import iter_blocks, pairwise_topk
from ..utils.exceptions import ValidationError
from ..utils.topk import select
from ..utils.validation import as_float_matrix, check_positive_int


@dataclass
class KnnMatrix:
    """Indices (and distances) of each point's ``k'`` nearest neighbours."""

    indices: np.ndarray
    distances: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 2:
            raise ValidationError("k'-NN indices must be a 2-D array")
        if self.distances is not None:
            self.distances = np.asarray(self.distances, dtype=np.float64)
            if self.distances.shape != self.indices.shape:
                raise ValidationError("distances must match the shape of indices")

    @property
    def n_points(self) -> int:
        return int(self.indices.shape[0])

    def gather(self, point_indices: np.ndarray) -> np.ndarray:
        """Neighbour index rows for a batch of points: ``(batch, k')``."""
        return self.indices[np.asarray(point_indices, dtype=np.int64)]


#: Candidates a scoring pass keeps beyond ``k'``: the wider the shortlist,
#: the larger the gap its certificate has to work with.
_SHORTLIST_SLACK = 8
#: Rows per float32 score block (12 bytes a cell with its argpartition result).
_FLOAT32_BLOCK = 256
#: float64 cells per difference-form chunk (32 MB).
_EXACT_CHUNK_CELLS = 1 << 22


def _nearest_by_exact_distance(
    points: np.ndarray, rows: np.ndarray, candidates: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest of each row's candidates by float64 ``|x - y|^2``.

    Differences are taken before squaring, so nothing cancels; equal
    distances resolve to the lower id.
    """
    candidates = np.sort(candidates, axis=1)
    ids = np.empty((rows.shape[0], k), dtype=np.int64)
    squared = np.empty((rows.shape[0], k), dtype=np.float64)
    chunk = max(1, _EXACT_CHUNK_CELLS // (candidates.shape[1] * points.shape[1]))
    for start, stop in iter_blocks(rows.shape[0], chunk):
        cand = candidates[start:stop]
        diff = points[cand] - points[rows[start:stop], None, :]
        dist = np.einsum("rcd,rcd->rc", diff, diff)
        order = select(dist, k)
        ids[start:stop] = np.take_along_axis(cand, order, axis=1)
        squared[start:stop] = np.take_along_axis(dist, order, axis=1)
    return ids, squared


def _shortlist_pass(
    points: np.ndarray,
    norms: np.ndarray,
    rows: np.ndarray,
    k: int,
    dtype: type,
    block_size: int,
    indices: np.ndarray,
    squared: np.ndarray,
) -> np.ndarray:
    """Answer ``rows`` from a ``dtype`` shortlist; return the rows left unproven.

    A ``dtype`` score ``|y|^2 - 2 x.y`` (inputs and norm rounded once, a
    length-``d`` dot product, one subtraction) is within
    ``(d + 4) * eps * (|x| + max|y|)^2`` of the true value — twice the
    first-order bound, which also covers the float64 rounding of the norms
    and of the difference-form distances.  ``argpartition`` leaves every
    off-shortlist score at or above the shortlist's largest score ``t``, so
    every off-shortlist point lies at squared distance at least
    ``t + |x|^2 - bound``.  A row is proven when that exceeds the exact
    distance of its ``k``-th shortlisted neighbour.
    """
    shortlist = k + _SHORTLIST_SLACK
    lengths = np.sqrt(norms)
    bound = (points.shape[1] + 4) * np.finfo(dtype).eps * (lengths + lengths.max()) ** 2
    unproven = [rows[:0]]
    # Magnitudes ``dtype`` cannot hold become inf/nan scores, which fail the
    # comparison below and leave the row unproven; the warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        cast = points.astype(dtype, copy=False)
        cast_norms = norms.astype(dtype, copy=False)
        for start, stop in iter_blocks(rows.shape[0], block_size):
            block = rows[start:stop]
            scores = cast[block] @ cast.T
            scores *= -2.0
            scores += cast_norms
            scores[np.arange(block.shape[0]), block] = np.inf
            cand = np.argpartition(scores, shortlist - 1, axis=1)[:, :shortlist]
            threshold = np.take_along_axis(scores, cand, axis=1).max(axis=1)
            indices[block], squared[block] = _nearest_by_exact_distance(points, block, cand, k)
            proven = threshold + norms[block] - bound[block] > squared[block, -1]
            unproven.append(block[~proven])
    return np.concatenate(unproven)


def _certified_self_join(
    points: np.ndarray, k: int, block_size: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Each point's ``k`` nearest other points under squared Euclidean distance.

    Returns ``(indices, squared_distances, (after_float32, after_float64))``;
    the counts are the rows still unproven after each shortlist pass.  Rows
    no shortlist settles — tie groups wider than the shortlist, offsets that
    swamp float64 — are compared against every other point in difference
    form, as is everything when the shortlist would cover the dataset.
    """
    n, dim = points.shape
    indices = np.empty((n, k), dtype=np.int64)
    squared = np.empty((n, k), dtype=np.float64)
    rows = np.arange(n)
    after_float32 = after_float64 = 0
    if k + _SHORTLIST_SLACK < n - 1:
        norms = np.einsum("ij,ij->i", points, points)
        narrow = min(block_size, _FLOAT32_BLOCK)
        rows = _shortlist_pass(points, norms, rows, k, np.float32, narrow, indices, squared)
        after_float32 = int(rows.shape[0])
        rows = _shortlist_pass(points, norms, rows, k, np.float64, block_size, indices, squared)
        after_float64 = int(rows.shape[0])
    others = np.arange(n - 1)
    for start, stop in iter_blocks(rows.shape[0], max(1, _EXACT_CHUNK_CELLS // (n * dim))):
        block = rows[start:stop]
        candidates = others + (others >= block[:, None])
        indices[block], squared[block] = _nearest_by_exact_distance(points, block, candidates, k)
    return indices, squared, (after_float32, after_float64)


def build_knn_matrix(
    points,
    k_prime: int = 10,
    *,
    metric: str = "euclidean",
    block_size: int = 1024,
    keep_distances: bool = False,
) -> KnnMatrix:
    """Build the k'-NN matrix for ``points`` by blocked exact search.

    Each point is excluded from its own neighbour list, matching the paper's
    Figure 2 where row ``i`` lists the neighbours of ``p_i`` other than
    itself.  ``block_size`` caps the rows per distance block.
    """
    points = as_float_matrix(points)
    check_positive_int(k_prime, "k_prime")
    if k_prime >= len(points):
        raise ValidationError(
            f"k_prime={k_prime} must be smaller than the number of points ({len(points)})"
        )
    if metric in ("euclidean", "sqeuclidean"):
        indices, distances, _ = _certified_self_join(points, k_prime, block_size)
        if metric == "euclidean":
            np.sqrt(distances, out=distances)
    else:
        indices, distances = pairwise_topk(
            points,
            points,
            k_prime,
            metric=metric,
            block_size=block_size,
            exclude_self=True,
        )
    return KnnMatrix(indices=indices, distances=distances if keep_distances else None)
