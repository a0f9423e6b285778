"""Common interface for every partition-based ANN index in this repository.

The paper compares many space-partitioning methods (USP, Neural LSH,
K-means, LSH, trees, ...).  All of them share the same online behaviour
(Algorithm 2): rank the bins for a query, collect the points of the ``m'``
most probable bins into a candidate set, and brute-force search within it.
:class:`PartitionIndexBase` implements that shared online phase once; each
method only supplies how bins are ranked for a query (and how the dataset
was assigned to bins during the offline phase).

Every partitioned answer is a *route* — the partition that answers, the
batch rows it answers and their ranked bins (:meth:`PartitionIndexBase.route`;
an ensemble routes each query to its most confident member) — scanned
bin by bin by :func:`scan_routes`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..api.protocol import RegisteredIndex
from ..utils.distances import get_metric, squared_norms, stacked_distances, unit_rows
from ..utils.exceptions import NotFittedError, ValidationError
from ..utils.topk import WHOLE_SORT_PER_K, select
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int


#: bytes of float64 rows one stacked call of :func:`rerank_candidates` may
#: gather: one core's L2 on the 2-core Xeon it was sized on.
RERANK_GATHER_BYTES = 2 << 20

#: Fewest queries a stacked call scores; groups that would be cut into
#: smaller blocks (lists of more than ``RERANK_GATHER_BYTES / 8`` bytes,
#: or fewer queries) are re-ranked one plain product per query.  Against
#: the per-query loop, 256 queries with 40-300 candidates of 64-784
#: dimensions in 2 MB blocks: stacking read 1.03-2.46x where a block held
#: 8 or more queries and 0.88-1.02x where it held 3-6
#: (``docs/benchmarks.md``).
RERANK_MIN_STACK = 8


def rerank_candidates(
    base: np.ndarray,
    queries: np.ndarray,
    candidate_lists: Sequence[np.ndarray] | np.ndarray,
    k: int,
    *,
    metric: str = "euclidean",
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact re-ranking of per-query candidate sets (the brute-force step).

    Given the candidate set of each query, compute exact distances and
    keep the best ``k``; an exact distance tie goes to the earlier
    candidate.  ``-1`` in a list is padding: never scored, never
    returned.  Rows are padded with ``-1`` / ``inf`` when fewer than ``k``
    candidates are available.  ``candidate_lists`` is a sequence of 1-D
    id arrays or one ``(queries, width)`` array.

    The queries whose lists hold equally many ids are re-ranked together:
    their rows are gathered into ``(queries, width, dim)`` blocks of at
    most :data:`RERANK_GATHER_BYTES`, and one :func:`stacked_distances`
    call scores a block — one matrix-vector product per query on its own
    gathered rows, the rounding of a one-query call whatever the block's
    size.  A group whose blocks would hold fewer than
    :data:`RERANK_MIN_STACK` queries is scored query by query.

    The quantized indexes re-rank their shortlists with it; on
    :meth:`PartitionIndexBase.candidate_sets` it is the tests' oracle for
    :func:`scan_routes`, which gives the same answers without the gather.
    """
    get_metric(metric)  # unknown names fail before any work
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    # A loaded quantized index re-ranks from a memmap; gathering through a
    # plain view of it skips memmap.__getitem__ on every block.
    base = np.asarray(base)
    out_indices = np.full((queries.shape[0], k), -1, dtype=np.int64)
    out_distances = np.full((queries.shape[0], k), np.inf)
    if len(candidate_lists) == 1:  # one query: its list alone, without the grouping
        ids = np.asarray(candidate_lists[0], dtype=np.int64).ravel()
        if ids.size and ids[ids.argmin()] < 0:  # argmin: a third of min's cost on a short list
            ids = ids[ids >= 0]
        if ids.size:
            _rerank_one(base, queries[:1], ids, metric, out_indices[0], out_distances[0])
        return out_indices, out_distances
    row_bytes = 8 * base.shape[1]
    for rows, lists in _equal_length_groups(candidate_lists):
        width = lists.shape[1]
        step = RERANK_GATHER_BYTES // (row_bytes * width)
        if min(step, rows.size) < RERANK_MIN_STACK:
            for row, ids in zip(rows.tolist(), lists):
                _rerank_one(base, queries[row : row + 1], ids, metric, out_indices[row], out_distances[row])
            continue
        for start in range(0, rows.size, step):
            ids, block = lists[start : start + step], rows[start : start + step]
            dists = _gathered_distances(base, queries[block], ids, metric)
            # flat positions: each row picks among its own
            nearest = select(dists, k) + np.arange(0, dists.size, width)[:, None]
            out_indices[block, : nearest.shape[1]] = ids.take(nearest)
            out_distances[block, : nearest.shape[1]] = dists.take(nearest)
    return out_indices, out_distances


def _rerank_one(
    base: np.ndarray, query: np.ndarray, ids: np.ndarray, metric: str, out_ids: np.ndarray, out_distances: np.ndarray
) -> None:
    """One ``(1, dim)`` query's unpadded 1-D list, re-ranked into its output rows."""
    dists = _gathered_distances(base, query, ids, metric)[0]
    nearest = select(dists, out_ids.size)
    out_ids[: nearest.size] = ids[nearest]
    out_distances[: nearest.size] = dists[nearest]


def _gathered_distances(base: np.ndarray, queries: np.ndarray, ids: np.ndarray, metric: str) -> np.ndarray:
    """``(q, c)`` distances from each query to its own rows: ``base[ids[i]]``, or ``base[ids]`` for one query."""
    rows = base[ids.ravel()].astype(np.float64, copy=False)
    if metric == "cosine":
        queries, rows, query_norms, row_norms = unit_rows(queries), unit_rows(rows), None, None
    else:
        query_norms, row_norms = squared_norms(queries), squared_norms(rows)
    if ids.ndim == 2:  # one block of rows per query
        rows = rows.reshape(*ids.shape, -1)
        row_norms = None if row_norms is None else row_norms.reshape(ids.shape)
    return stacked_distances(queries, query_norms, rows, row_norms, metric)


def _equal_length_groups(
    candidate_lists: Sequence[np.ndarray] | np.ndarray,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(rows, ids)`` per non-zero list length: the query rows and their ``(rows, length)`` ids.

    ``-1`` entries are dropped; the ids left keep their order.
    """
    if isinstance(candidate_lists, np.ndarray) and candidate_lists.ndim == 2:
        ids = candidate_lists.astype(np.int64, copy=False)
        if ids.size == 0:
            return []
        if ids.min() >= 0:
            return [(np.arange(ids.shape[0]), ids)]
        # A stable sort of the padding flags moves each row's ids ahead
        # of its -1s, in order.
        valid = ids >= 0
        ids = np.take_along_axis(ids, np.argsort(~valid, axis=1, kind="stable"), axis=1)
        lengths = np.count_nonzero(valid, axis=1)
    else:  # ragged lists: their ids, left-aligned in one -1-padded array
        lists = [np.asarray(c, dtype=np.int64).ravel() for c in candidate_lists]
        if lists and np.concatenate(lists).min(initial=0) < 0:
            lists = [c[c >= 0] for c in lists]
        lengths = np.array([c.size for c in lists], dtype=np.int64)
        ids = np.full((lengths.size, lengths.max(initial=0)), -1, dtype=np.int64)
        for row, c in zip(ids, lists):
            row[: c.size] = c
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    starts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()]
    return [
        (order[lo:hi], ids[order[lo:hi], : lengths[lo]])
        for lo, hi in zip(starts, [*starts[1:], order.size])
        if lengths[lo]
    ]


def scan_bins(
    ranked: np.ndarray,
    bounds: np.ndarray,
    ids: Optional[np.ndarray],
    k: int,
    score: Callable[[np.ndarray, int, slice], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` best-scored rows of each query's ``ranked`` bins, as ``(ids, scores)``.

    ``ids[p]`` is returned for layout row ``p`` (``None``: ``p`` itself).
    The first ``k`` of a stable argsort of each query's scores over its
    concatenated bins, padded with ``-1`` / ``inf``.  The (query, probe
    rank) pairs are grouped by bin once, and ``score(queries, b, rows)``
    scores bin ``b``'s layout ``rows`` (a ``slice``) for all the queries
    that probe it, smaller = better.  Each query keeps the bin's rows in
    the pool block of its probe rank, and one stable sort per pool row
    merges the blocks.  At one probe a block is the bin's sorted best
    ``k``: the answer.  At more, a bin of up to ``k'`` rows fills its
    block unsorted, in gathered order, and a larger one keeps its best
    ``k``; ``k'`` is the largest probed bin that
    :func:`repro.utils.topk.select` would sort whole rather than partition
    (at most ``WHOLE_SORT_PER_K · k`` rows; at least ``min(k, largest
    probed bin)``).
    """
    n_queries, n_probes = ranked.shape
    sizes = np.diff(bounds)[ranked]
    width = min(k, int(sizes.max(initial=0)))  # k'
    if n_probes > 1:
        width = max(width, int(sizes[sizes <= WHOLE_SORT_PER_K * k].max(initial=0)))
    pool_shape = (n_queries, n_probes, max(width, -(-k // n_probes)))  # >= k columns
    pool_ids = np.full(pool_shape, -1, dtype=np.int64)
    pool_scores = np.full(pool_shape, np.inf, dtype=np.float64)
    pairs = np.argsort(ranked, axis=None, kind="stable")
    probed = ranked.ravel()[pairs]
    starts = np.flatnonzero(np.diff(probed, prepend=-1))
    for group, b in zip(np.split(pairs, starts[1:]), probed[starts].tolist()):
        lo, hi = bounds[b], bounds[b + 1]
        if lo == hi:
            continue
        qi, rank = np.divmod(group, n_probes)
        scores = score(qi, b, slice(lo, hi))
        block_ids = np.arange(lo, hi) if ids is None else ids[lo:hi]
        if n_probes > 1 and hi - lo <= width:
            block_scores = scores
        else:
            nearest = select(scores, min(k, width))
            block_ids = block_ids[nearest]
            block_scores = scores[np.arange(len(qi))[:, None], nearest]
        pool_ids[qi, rank, : block_scores.shape[1]] = block_ids
        pool_scores[qi, rank, : block_scores.shape[1]] = block_scores
    pool_ids = pool_ids.reshape(n_queries, -1)
    pool_scores = pool_scores.reshape(n_queries, -1)
    if n_probes == 1:  # one block per query, already in order: the answer
        return pool_ids, pool_scores
    order = select(pool_scores, k)
    return np.take_along_axis(pool_ids, order, axis=1), np.take_along_axis(pool_scores, order, axis=1)


@dataclass(eq=False)
class _BinMajorLayout:
    """A partition's base rows stored bin after bin: the only copy it keeps.

    Bin ``b`` owns layout rows ``[bounds[b], bounds[b + 1])``.  Layout row
    ``p`` is base row ``ids[p]`` byte for byte; ``ids`` is the stable
    argsort of the assignments, so a bin's ids ascend.  ``metric`` sets
    the per-row constant the scan reads: ``euclidean`` / ``sqeuclidean``
    the rows' squared ``norms``, ``cosine`` the ``units`` (the rows
    divided by their norms), kept beside the raw rows: dividing each
    probed block at scan time added 28-30 % to a cosine ``batch_query``
    (10k x 64, one BLAS thread).  Both are derived, never saved.

    :meth:`scan` walks the probed bins, not the queries (see
    :func:`scan_bins`): every query that probes bin ``b`` is scored
    against ``b``'s contiguous row range in one stacked call.  The stacked
    call is one matrix-vector product per query on exactly the bytes
    :func:`rerank_candidates` would gather for that bin — not one matrix
    product for the group, whose rounding would depend on how many
    queries share the bin.
    """

    ids: np.ndarray
    bounds: np.ndarray
    rows: Optional[np.ndarray]
    metric: str
    units: Optional[np.ndarray] = field(init=False)
    norms: Optional[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        get_metric(self.metric)  # unknown names fail exactly as in rerank_candidates
        if self.metric == "cosine":
            self.units, self.norms = unit_rows(self.rows), None
        else:
            self.units, self.norms = None, squared_norms(self.rows)

    def scan(
        self, queries: np.ndarray, ranked: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest rows of each query's ``ranked`` bins, as base ids.

        Same distances, selection and padding as :func:`rerank_candidates`
        over the concatenated bins of each row of ``ranked``.
        """
        norms, metric = self.norms, self.metric
        if norms is None:
            rows, queries, query_norms = self.units, unit_rows(queries), None
        else:
            rows, query_norms = self.rows, squared_norms(queries)

        def distances(qi: np.ndarray, b: int, block: slice) -> np.ndarray:
            if norms is None:
                return stacked_distances(queries[qi], None, rows[block], None, metric)
            return stacked_distances(queries[qi], query_norms[qi], rows[block], norms[block], metric)

        return scan_bins(ranked, self.bounds, self.ids, k, distances)

    def restricted(self, allowed: np.ndarray, bins: np.ndarray) -> "_BinMajorLayout":
        """This layout cut to the rows of ``bins`` (only those are read) that ``allowed`` admits."""
        bins = np.unique(bins)
        starts = self.bounds[bins]
        sizes = self.bounds[bins + 1] - starts
        positions = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        positions += np.arange(positions.size)
        keep = allowed[self.ids[positions]]
        positions = positions[keep]
        counts = np.bincount(np.repeat(bins, sizes)[keep], minlength=self.bounds.size - 1)
        layout = copy.copy(self)
        layout.bounds = np.zeros_like(self.bounds)
        np.cumsum(counts, out=layout.bounds[1:])
        layout.ids = self.ids[positions]
        if self.units is None:
            layout.rows, layout.norms = self.rows[positions], self.norms[positions]
        else:  # cosine scans the unit rows alone
            layout.rows, layout.units = None, self.units[positions]
        return layout


#: one partition's share of a batch: ``(partition, query_rows, ranked_bins)``
Route = Tuple["PartitionIndexBase", np.ndarray, np.ndarray]


def scan_routes(
    routes: Sequence[Route], queries: np.ndarray, k: int, allowed: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest rows of each query's routed bins, as ``(ids, distances)``.

    Each route's partition scans its bin-major layout for its query rows;
    ``allowed`` (a boolean mask over base ids) first cuts the layout to the
    route's probed bins less the rows it excludes, so those never reach
    the distance kernel.
    Row ``i`` is what :func:`rerank_candidates` gives on the ``allowed``
    members of its route's concatenated ranked bins.
    """
    ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
    distances = np.full((queries.shape[0], k), np.inf)
    for partition, rows, ranked in routes:
        layout = partition.layout
        if allowed is not None:
            layout = layout.restricted(allowed, ranked)
        ids[rows], distances[rows] = layout.scan(queries[rows], ranked, k)
    return ids, distances


class PartitionIndexBase(RegisteredIndex):
    """Base class: the bin assignments and the bin-major :attr:`layout`, the only copy of the rows.

    Subclasses must call :meth:`_finalize_build` at the end of their
    ``build`` method and implement :meth:`bin_scores`.  A saved partition
    is its metric and its layout's ids, bounds and rows; the positions
    and assignments are derived on load.
    """

    #: metric used for the final candidate re-ranking
    metric: str = "euclidean"
    _fitted = ("metric", "_layout")

    def __init__(self) -> None:
        self._assignments: Optional[np.ndarray] = None
        self._layout: Optional[_BinMajorLayout] = None
        self._positions: Optional[np.ndarray] = None  # layout row of every base id

    # ------------------------------------------------------------------ #
    # offline phase plumbing
    # ------------------------------------------------------------------ #
    def _finalize_build(self, base: np.ndarray, assignments: np.ndarray, n_bins: int) -> None:
        """Store the assignments and the base rows, bin-major (a copy: the index owns its rows)."""
        base = as_float_matrix(base, name="base")
        assignments = np.asarray(assignments, dtype=np.int64).reshape(-1)
        if assignments.shape[0] != base.shape[0]:
            raise ValidationError("assignments must have one entry per base point")
        if assignments.min() < 0 or assignments.max() >= n_bins:
            raise ValidationError("assignments contain bin ids outside [0, n_bins)")
        ids = np.argsort(assignments, kind="stable")
        bounds = np.searchsorted(assignments[ids], np.arange(n_bins + 1))
        self._adopt(_BinMajorLayout(ids, bounds, base[ids], self.metric))

    def _loaded(self) -> None:
        self._adopt(self._layout)

    def _adopt(self, layout: _BinMajorLayout) -> None:
        """Take ``layout`` as the rows, deriving each base id's layout position and bin."""
        ids, bounds, n = layout.ids, layout.bounds, layout.rows.shape[0]
        if ids.shape != (n,) or bounds[0] != 0 or bounds[-1] != n or (np.diff(bounds) < 0).any():
            raise ValidationError(f"a layout of {n} rows has {ids.shape} ids and bin bounds {bounds[[0, -1]]}")
        positions = np.full(n, -1, dtype=np.int64)
        positions[ids] = np.arange(n)
        if (positions < 0).any():
            raise ValidationError("the layout's ids are not a permutation of its rows")
        self._layout, self._positions = layout, positions
        self._assignments = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))[positions]

    def _require_built(self) -> None:
        if self._layout is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self._layout is not None

    @property
    def layout(self) -> _BinMajorLayout:
        """The bin-major rows with the per-row constant of the current ``metric``."""
        self._require_built()
        layout = self._layout
        if layout.metric != self.metric:  # changed after build: same rows, new constant
            layout = self._layout = _BinMajorLayout(layout.ids, layout.bounds, layout.rows, self.metric)
        return layout

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._layout.rows.shape[0])

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._layout.rows.shape[1])

    @property
    def n_bins(self) -> int:
        self._require_built()
        return self._layout.bounds.size - 1

    @property
    def assignments(self) -> np.ndarray:
        """Bin id of every base point."""
        self._require_built()
        return self._assignments

    def bin_sizes(self) -> np.ndarray:
        """Number of points per bin."""
        self._require_built()
        return np.diff(self._layout.bounds)

    def points_in_bin(self, bin_id: int) -> np.ndarray:
        """Indices of the base points assigned to ``bin_id``."""
        self._require_built()
        if not 0 <= bin_id < self.n_bins:
            raise ValidationError(f"bin_id {bin_id} out of range [0, {self.n_bins})")
        bounds = self._layout.bounds
        return self._layout.ids[bounds[bin_id] : bounds[bin_id + 1]]

    def vectors(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Base rows ``ids`` copied out of the layout; every row, in id order, for ``None``."""
        self._require_built()
        return self._layout.rows[self._positions if ids is None else self._positions[ids]]

    # ------------------------------------------------------------------ #
    # online phase (Algorithm 2)
    # ------------------------------------------------------------------ #
    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Score of each bin for each query, higher = more likely.

        Must be implemented by subclasses; shape ``(n_queries, n_bins)``.
        """
        raise NotImplementedError

    def top_bins(self, queries: np.ndarray, n_probes: int) -> np.ndarray:
        """Each query's ``n_probes`` highest-scoring bins, best first (ties: lower bin first), without ranking every bin."""
        return select(-self.bin_scores(queries), n_probes)

    def route(self, queries: np.ndarray, n_probes: int) -> List[Route]:
        """One route: every query to its top ``n_probes`` bins (see :func:`scan_routes`)."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        n_probes = min(check_positive_int(n_probes, "n_probes"), self.n_bins)
        return [(self, np.arange(queries.shape[0]), self.top_bins(queries, n_probes))]

    def candidate_sets(self, queries: np.ndarray, n_probes: int = 1) -> List[np.ndarray]:
        """Each query's routed bins as one concatenated id list (the tests' oracle)."""
        ((_, _, ranked),) = self.route(queries, n_probes)
        return [np.concatenate([self.points_in_bin(b) for b in row]) for row in ranked]

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 1, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The approximate ``k`` nearest base indices and distances per query.

        Returns ``(indices, distances)`` arrays of shape ``(n_queries, k)``;
        rows are padded with ``-1`` / ``inf`` when a candidate set holds
        fewer than ``k`` points.

        ``filter=`` restricts results to ids satisfying a predicate /
        mask / allowlist: the :class:`repro.filter.FilterPlanner` scans
        only the probed bins' allowed rows (inline), or
        brute-forces the surviving subset when the predicate is highly
        selective (pre-filter) — disallowed ids never reach the distance
        kernel either way.

        The probed bins' row ranges of the bin-major :attr:`layout` are
        scanned bin by bin, each once for all the queries that probe it,
        with the answers :func:`rerank_candidates` gives on
        :meth:`candidate_sets`.
        """
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(k, "k")
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=int(n_probes))
        n_probes = min(check_positive_int(n_probes, "n_probes"), self.n_bins)
        ranked = self.top_bins(queries, n_probes)
        return self.layout.scan(queries, ranked, int(k))
