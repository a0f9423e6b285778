"""Distance kernels used throughout the library.

All ANN components in the paper use Euclidean distance; the sketching
back-ends additionally use inner-product scores.  The kernels here are
vectorised and blocked so that pairwise computations on tens of thousands
of points stay within a modest memory budget.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

import numpy as np

from .topk import select

#: Default number of rows per block for blocked pairwise computations.
DEFAULT_BLOCK_SIZE = 1024


def squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every row: the per-row constant of :func:`squared_euclidean`."""
    return np.einsum("ij,ij->i", x, x)


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows divided by their L2 norms (zero rows stay zero), as :func:`cosine_distance` uses them."""
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norm == 0.0, 1.0, norm)


def squared_euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of ``x`` and ``y``.

    Uses the ``|x|^2 - 2 x.y + |y|^2`` expansion; the result is clipped at
    zero to guard against negative values from floating point cancellation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    x_norm = squared_norms(x)[:, None]
    y_norm = squared_norms(y)[None, :]
    dist = x_norm + y_norm - 2.0 * (x @ y.T)
    np.maximum(dist, 0.0, out=dist)
    return dist


def euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``x`` and ``y``."""
    return np.sqrt(squared_euclidean(x, y))


def inner_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise inner products (similarities, larger is closer)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return x @ y.T


def cosine_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances (1 - cosine similarity)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return 1.0 - unit_rows(x) @ unit_rows(y).T


_METRICS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "euclidean": euclidean,
    "sqeuclidean": squared_euclidean,
    "cosine": cosine_distance,
}


def get_metric(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Look up a pairwise distance function by name.

    Supported names: ``euclidean``, ``sqeuclidean``, ``cosine``.
    """
    try:
        return _METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; expected one of {sorted(_METRICS)}"
        ) from None


def iter_blocks(n: int, block_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` row ranges covering ``range(n)`` in blocks."""
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    for start in range(0, n, block_size):
        yield start, min(start + block_size, n)


def pairwise_topk(
    queries: np.ndarray,
    points: np.ndarray,
    k: int,
    *,
    metric: str = "euclidean",
    block_size: int = DEFAULT_BLOCK_SIZE,
    exclude_self: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` nearest rows of ``points`` for each row of ``queries``.

    Parameters
    ----------
    queries, points:
        2-D arrays with matching dimensionality.
    k:
        Number of neighbours to return (clipped to the number of points).
    metric:
        One of ``euclidean``, ``sqeuclidean``, ``cosine``.
    block_size:
        Queries are processed in blocks of this many rows to bound memory.
    exclude_self:
        When ``queries is points`` (building a k'-NN matrix), set this to
        exclude each point from its own neighbour list by masking the
        diagonal of each block.

    Returns
    -------
    (indices, distances):
        Both of shape ``(len(queries), k)``, sorted by increasing distance;
        equidistant rows keep the smaller index (:func:`~repro.utils.topk.select`).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_points = points.shape[0]
    k = int(min(k, n_points - (1 if exclude_self else 0)))
    if k <= 0:
        raise ValueError("k must be positive after clipping to dataset size")
    dist_fn = get_metric(metric)

    all_idx = np.empty((queries.shape[0], k), dtype=np.int64)
    all_dist = np.empty((queries.shape[0], k), dtype=np.float64)
    for start, stop in iter_blocks(queries.shape[0], block_size):
        block = dist_fn(queries[start:stop], points)
        if exclude_self:
            rows = np.arange(start, stop)
            cols = rows[rows < n_points]
            block[np.arange(cols.shape[0]), cols] = np.inf
        nearest = select(block, k)
        all_idx[start:stop] = nearest
        all_dist[start:stop] = np.take_along_axis(block, nearest, axis=1)
    return all_idx, all_dist
