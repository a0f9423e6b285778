"""Distance kernels used throughout the library.

All ANN components in the paper use Euclidean distance; the sketching
back-ends additionally use inner-product scores.  The kernels here are
vectorised and blocked so that pairwise computations on tens of thousands
of points stay within a modest memory budget.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .topk import fold, merge, select

#: Default number of rows per block for blocked pairwise computations.
DEFAULT_BLOCK_SIZE = 1024

#: Entries in one tile of :func:`pairwise_topk`'s column walk: up to
#: :data:`TOPK_TILE_ROWS` query rows by ``TOPK_TILE // rows`` columns.  A
#: tile is 1 MiB of float64, so it and its scratch copy fit a 2 MiB L2.
#: On one Xeon core, 256 queries x 100k x 96 (64-query blocks, k = 10)
#: take 295-345 ms at 2^16, 2^17 or 2^18 entries and 8-32 rows, within
#: noise of each other; the full distance matrix took 660-790 ms and the
#: GEMM alone is 140-200 ms of either.
#:
#: The two fractions in :func:`_scan_rows` were measured against their
#: neighbours (paired in-process, 7 rounds, 2-core Xeon; 1000 x 10k,
#: 256 x 100k, and 256 x 50k with points sorted far to near or in
#: clusters).  A first tile of 1/8-1/2 of a tile reads within noise,
#: a whole one 0.85-0.94x.  Switching a tile to a whole select above
#: 1/16-1/4 admitted entries reads within noise; never switching reads
#: 0.26x on the sorted points and 0.77x on the clusters.  Selecting
#: every tile whole and merging it, with no bound, reads 0.64-0.80x
#: except on the sorted points (1.19x).
TOPK_TILE = 1 << 17
TOPK_TILE_ROWS = 16


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

    Every distance is the one :func:`get_metric`'s function returns, bit
    for bit: each block runs the same GEMM, ``block @ points.T``, and each
    entry the same clamp and square root.  The ``(block, n)`` distance
    matrix is never built; see :func:`_scan_rows`.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_points = points.shape[0]
    k = int(min(k, n_points - (1 if exclude_self else 0)))
    if k <= 0:
        raise ValueError("k must be positive after clipping to dataset size")
    get_metric(metric)

    # The per-point aggregates every block reuses: unit rows or squared norms.
    cosine = metric == "cosine"
    point_norms = None
    if cosine:
        points = unit_rows(points)
    else:
        point_norms = squared_norms(points)
    n_queries = queries.shape[0]
    blocks = list(iter_blocks(n_queries, block_size))
    block_rows = min(block_size, n_queries)
    # A run is as many rows as one tile holds whole, so short rows (a
    # prefilter's allowed set) take few runs; long rows take TOPK_TILE_ROWS.
    rows = max(1, min(block_rows, max(TOPK_TILE_ROWS, TOPK_TILE // n_points)))
    width = max(TOPK_TILE // rows, k)
    # A row that fits one tile is one tile.  Otherwise the first tile only
    # has to set a bound, so it is a quarter wide.
    widths = (n_points if n_points <= width else max(width // 4, k), width)
    # One allocation for the GEMM output and the tile scratch: freeing a
    # separate mid-sized scratch would raise glibc's mmap threshold and
    # leave later callers' arrays on the heap.
    tile_size = rows * min(width, n_points)
    buffer = np.empty(block_rows * n_points + 2 * tile_size)
    products = buffer[: block_rows * n_points].reshape(block_rows, n_points)
    scratch = buffer[block_rows * n_points :].reshape(2, tile_size)

    all_idx = np.empty((n_queries, k), dtype=np.int64)
    all_dist = np.empty((n_queries, k), dtype=np.float64)
    for start, stop in blocks:
        block = queries[start:stop]
        block_norms = None
        if cosine:
            block = unit_rows(block)
        else:
            block_norms = squared_norms(block)
        gram = np.matmul(block, points.T, out=products[: stop - start])
        for top in range(0, stop - start, rows):
            bottom = min(top + rows, stop - start)
            _scan_rows(
                gram[top:bottom],
                None if cosine else block_norms[top:bottom],
                point_norms,
                metric,
                np.arange(start + top, start + bottom) if exclude_self else None,
                widths,
                scratch,
                all_idx[start + top : start + bottom],
                all_dist[start + top : start + bottom],
            )
    return all_idx, all_dist


def _scan_rows(
    gram: np.ndarray,
    row_norms: np.ndarray | None,
    point_norms: np.ndarray | None,
    metric: str,
    own: np.ndarray | None,
    widths: Tuple[int, int],
    scratch: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
) -> None:
    """Fill ``ids`` / ``dists`` with the top-k of a run of query rows.

    The run's columns are walked in tiles.  The first tile is selected
    whole (:func:`~repro.utils.topk.select`) and sets each row's k-th
    distance as its bound.  A later tile finishes (clamp, square root)
    only the entries whose pre-root value is within the bound; they are
    folded in at the end, or once they outnumber an eighth of a tile
    (:func:`~repro.utils.topk.fold`).  No entry that
    fails the bound can enter: for the Euclidean metric a finished
    distance ``sqrt(max(d, 0)) < b`` needs ``d < b * b`` exactly, so
    ``d <= fl(b * b)``; a later column ties a kept one only to lose it.
    A tile that admits more than an eighth of its entries is selected
    whole and merged at once, which also tightens the bound (both
    fractions are measured at :data:`TOPK_TILE`).  ``own`` holds each
    row's own column to mask (``exclude_self``).
    """
    height, n_points = gram.shape
    k = ids.shape[1]
    pending = []
    n_pending = 0
    left = 0
    while left < n_points:
        right = min(left + widths[left > 0], n_points)
        width = right - left
        tile = scratch[0, : height * width].reshape(height, width)
        if row_norms is None:
            np.subtract(1.0, gram[:, left:right], out=tile)
        else:
            twice = scratch[1, : height * width].reshape(height, width)
            np.add(row_norms[:, None], point_norms[left:right], out=tile)
            np.subtract(tile, np.multiply(gram[:, left:right], 2.0, out=twice), out=tile)
        if own is not None:
            mine = np.flatnonzero((own >= left) & (own < right))
            tile[mine, own[mine] - left] = np.inf
        if left:
            bound = dists[:, -1]
            if metric == "euclidean":
                bound = bound * bound
            # A NaN k-th distance (overflowed norms) bounds nothing.
            hits = np.flatnonzero(tile <= np.fmin(bound, np.inf)[:, None])
            if hits.shape[0] <= tile.size // 8:
                if hits.shape[0]:
                    hit_rows, hit_cols = np.divmod(hits, width)
                    pending.append((hit_rows, hit_cols + left, _finish(tile.ravel()[hits], metric)))
                    n_pending += hits.shape[0]
                if n_pending > tile.size // 8:
                    fold(ids, dists, *map(np.concatenate, zip(*pending)))
                    pending, n_pending = [], 0
                left = right
                continue
        _finish(tile, metric)
        nearest = select(tile, min(k, width))
        near = tile[np.arange(height)[:, None], nearest]
        if left:
            ids[...], dists[...] = merge(
                np.hstack([ids, nearest + left]), np.hstack([dists, near]), k
            )
        else:
            ids[...], dists[...] = nearest, near
        left = right
    if pending:
        fold(ids, dists, *map(np.concatenate, zip(*pending)))


def stacked_distances(
    queries: np.ndarray,
    query_norms: Optional[np.ndarray],
    rows: np.ndarray,
    row_norms: Optional[np.ndarray],
    metric: str,
) -> np.ndarray:
    """``(q, c)`` distances from each of ``q`` queries to its own ``c`` rows.

    ``rows`` is one ``(c, dim)`` block that every query reads or a
    ``(q, c, dim)`` stack, one block per query.  ``euclidean`` /
    ``sqeuclidean`` pass both sides' :func:`squared_norms` (``row_norms``
    shaped like ``rows`` less its last axis); ``cosine`` passes
    :func:`unit_rows` on both sides and no norms.

    Row ``i`` is bitwise the metric's own function on ``queries[i:i + 1]``
    and its rows: a ``(q, 1, dim) @ (..., dim, c)`` matmul runs that call's
    matrix-vector product once per query, on the same strides, and the
    terms are summed in the same order.
    """
    if queries.shape[0] == 1 and rows.ndim == 2:  # the same product, without the stacking views
        dots = queries @ rows.T
    else:
        dots = (queries[:, None, :] @ np.swapaxes(rows, -1, -2))[:, 0, :]
    pre = 1.0 - dots if metric == "cosine" else query_norms[:, None] + row_norms - 2.0 * dots
    return _finish(pre, metric)


def _finish(pre: np.ndarray, metric: str) -> np.ndarray:
    """Clamp at 0 and take the square root in place, as the metric's function ends."""
    if metric != "cosine":
        np.maximum(pre, 0.0, out=pre)
    if metric == "euclidean":
        np.sqrt(pre, out=pre)
    return pre
