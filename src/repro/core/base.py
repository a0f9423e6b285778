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
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..api.protocol import RegisteredIndex
from ..utils.distances import get_metric, squared_norms, unit_rows
from ..utils.exceptions import NotFittedError, ValidationError
from ..utils.topk import WHOLE_SORT_PER_K, select
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int


def rerank_candidates(
    base: np.ndarray,
    queries: np.ndarray,
    candidate_lists: Sequence[np.ndarray],
    k: int,
    *,
    metric: str = "euclidean",
) -> Tuple[np.ndarray, np.ndarray]:
    """Exactly re-rank per-query candidate index lists against ``base``.

    Given the candidate set of each query, compute exact distances and
    keep the best ``k``; an exact distance tie goes to the earlier
    candidate.  Rows are padded with ``-1`` / ``inf`` when fewer than
    ``k`` candidates are available.  The quantized indexes re-rank their
    shortlists with it; on :meth:`PartitionIndexBase.candidate_sets` it is
    the tests' oracle for :func:`scan_routes`, which gives the same
    answers without the gather.
    """
    metric_fn = get_metric(metric)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    out_indices = np.full((queries.shape[0], k), -1, dtype=np.int64)
    out_distances = np.full((queries.shape[0], k), np.inf, dtype=np.float64)
    for i, candidates in enumerate(candidate_lists):
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            continue
        dists = metric_fn(queries[i : i + 1], base[candidates])[0]
        nearest = select(dists, k)
        out_indices[i, : nearest.size] = candidates[nearest]
        out_distances[i, : nearest.size] = dists[nearest]
    return out_indices, out_distances


def bin_major(lookup: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``(bounds, ids)``: the ``lookup`` buckets concatenated bin after bin.

    Bin ``b`` owns positions ``[bounds[b], bounds[b + 1])`` of ``ids``.
    """
    bounds = np.concatenate([[0], np.cumsum([len(b) for b in lookup])]).astype(np.int64)
    return bounds, np.concatenate(lookup)


def scan_bins(
    ranked: np.ndarray,
    bounds: np.ndarray,
    ids: np.ndarray,
    k: int,
    score: Callable[[np.ndarray, int, slice], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` best-scored rows of each query's ``ranked`` bins, as ``(ids, scores)``.

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
        if n_probes > 1 and hi - lo <= width:
            block_ids, block_scores = ids[lo:hi], scores
        else:
            nearest = select(scores, min(k, width))
            block_ids = ids[lo:hi][nearest]
            block_scores = scores[np.arange(len(qi))[:, None], nearest]
        pool_ids[qi, rank, : block_scores.shape[1]] = block_ids
        pool_scores[qi, rank, : block_scores.shape[1]] = block_scores
    pool_ids = pool_ids.reshape(n_queries, -1)
    pool_scores = pool_scores.reshape(n_queries, -1)
    if n_probes == 1:  # one block per query, already in order: the answer
        return pool_ids, pool_scores
    order = select(pool_scores, k)
    return np.take_along_axis(pool_ids, order, axis=1), np.take_along_axis(pool_scores, order, axis=1)


class _BinMajorLayout:
    """The base rows regrouped bin after bin, with the metric's per-row constant.

    Bin ``b`` owns layout rows ``[bounds[b], bounds[b + 1])``, which are
    ``base[ids[bounds[b]:bounds[b + 1]]]`` byte for byte (see
    :func:`bin_major`).  ``euclidean`` / ``sqeuclidean`` keep the rows and
    their squared norms; ``cosine`` keeps the rows already divided by
    their norms.

    :meth:`scan` walks the probed bins, not the queries (see
    :func:`scan_bins`): every query that probes bin ``b`` is scored
    against ``b``'s contiguous row range in one stacked call.  The stacked
    call is one matrix-vector product per query on exactly the bytes
    :func:`rerank_candidates` would gather for that bin — not one matrix
    product for the group, whose rounding would depend on how many
    queries share the bin.
    """

    def __init__(self, base: np.ndarray, lookup: Sequence[np.ndarray], metric: str) -> None:
        get_metric(metric)  # unknown names fail exactly as in rerank_candidates
        self.metric = metric
        self.bounds, self.ids = bin_major(lookup)
        rows = base[self.ids]
        if metric == "cosine":
            self.rows, self.norms = unit_rows(rows), None
        else:
            self.rows, self.norms = rows, squared_norms(rows)

    def scan(
        self, queries: np.ndarray, ranked: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest rows of each query's ``ranked`` bins, as base ids.

        Same distances, selection and padding as :func:`rerank_candidates`
        over the concatenated ``lookup`` buckets of each row of ``ranked``.
        """
        rows, norms = self.rows, self.norms
        if norms is None:
            queries = unit_rows(queries)
        else:
            query_norms = squared_norms(queries)

        def distances(qi: np.ndarray, b: int, block: slice) -> np.ndarray:
            dots = (queries[qi][:, None, :] @ rows[block].T)[:, 0, :]
            if norms is None:
                return 1.0 - dots
            dists = query_norms[qi, None] + norms[block] - 2.0 * dots
            np.maximum(dists, 0.0, out=dists)
            if self.metric == "euclidean":
                np.sqrt(dists, out=dists)
            return dists

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
        layout.ids, layout.rows = self.ids[positions], self.rows[positions]
        layout.norms = None if self.norms is None else self.norms[positions]
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
        layout = partition._bin_major_layout()
        if allowed is not None:
            layout = layout.restricted(allowed, ranked)
        ids[rows], distances[rows] = layout.scan(queries[rows], ranked, k)
    return ids, distances


class PartitionIndexBase(RegisteredIndex):
    """Base class: stores the dataset, bin assignments, and a lookup table.

    Subclasses must call :meth:`_finalize_build` at the end of their
    ``build`` method and implement :meth:`bin_scores`.  Persistence
    (:meth:`save` / :meth:`load`, inherited from
    :class:`~repro.api.protocol.RegisteredIndex`) is implemented here once
    for the shared state; subclasses add their scoring state through the
    :meth:`_extra_state` / :meth:`_restore` hooks.
    """

    #: metric used for the final candidate re-ranking
    metric: str = "euclidean"

    def __init__(self) -> None:
        self._base: Optional[np.ndarray] = None
        self._assignments: Optional[np.ndarray] = None
        self._lookup: Optional[List[np.ndarray]] = None
        self._n_bins: Optional[int] = None
        self._layout: Optional[_BinMajorLayout] = None

    # ------------------------------------------------------------------ #
    # offline phase plumbing
    # ------------------------------------------------------------------ #
    def _finalize_build(self, base: np.ndarray, assignments: np.ndarray, n_bins: int) -> None:
        """Store the dataset and build the bin -> point-indices lookup table."""
        base = as_float_matrix(base, name="base")
        assignments = np.asarray(assignments, dtype=np.int64).reshape(-1)
        if assignments.shape[0] != base.shape[0]:
            raise ValidationError("assignments must have one entry per base point")
        if assignments.min() < 0 or assignments.max() >= n_bins:
            raise ValidationError("assignments contain bin ids outside [0, n_bins)")
        self._base = base
        self._assignments = assignments
        self._n_bins = int(n_bins)
        lookup: List[np.ndarray] = []
        order = np.argsort(assignments, kind="stable")
        sorted_bins = assignments[order]
        boundaries = np.searchsorted(sorted_bins, np.arange(n_bins + 1))
        for bin_id in range(n_bins):
            lookup.append(order[boundaries[bin_id] : boundaries[bin_id + 1]])
        self._lookup = lookup
        self._layout = None

    def _require_built(self) -> None:
        if self._base is None or self._lookup is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self._base is not None

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._base.shape[0])

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._base.shape[1])

    @property
    def n_bins(self) -> int:
        self._require_built()
        return int(self._n_bins)

    @property
    def assignments(self) -> np.ndarray:
        """Bin id of every base point."""
        self._require_built()
        return self._assignments

    def bin_sizes(self) -> np.ndarray:
        """Number of points per bin."""
        self._require_built()
        return np.array([len(bucket) for bucket in self._lookup], dtype=np.int64)

    def points_in_bin(self, bin_id: int) -> np.ndarray:
        """Indices of the base points assigned to ``bin_id``."""
        self._require_built()
        if not 0 <= bin_id < self._n_bins:
            raise ValidationError(f"bin_id {bin_id} out of range [0, {self._n_bins})")
        return self._lookup[bin_id]

    def num_parameters(self) -> int:
        """Learnable/stored parameter count (Table 2); overridden by learners."""
        return 0

    # ------------------------------------------------------------------ #
    # online phase (Algorithm 2)
    # ------------------------------------------------------------------ #
    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Score of each bin for each query, higher = more likely.

        Must be implemented by subclasses; shape ``(n_queries, n_bins)``.
        """
        raise NotImplementedError

    def ranked_bins(self, queries: np.ndarray) -> np.ndarray:
        """Bins ordered from most to least probable for each query."""
        scores = self.bin_scores(queries)
        return np.argsort(-scores, axis=1, kind="stable")

    def top_bins(self, queries: np.ndarray, n_probes: int) -> np.ndarray:
        """``ranked_bins(queries)[:, :n_probes]``, without ranking every bin."""
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
        return [np.concatenate([self._lookup[b] for b in row]) for row in ranked]

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

        The probed bins' row ranges of the bin-major layout (built on the
        first scan) are scanned bin by bin, each once for all the queries
        that probe it, with the answers :func:`rerank_candidates` gives on
        :meth:`candidate_sets`.
        """
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(k, "k")
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=int(n_probes))
        n_probes = min(check_positive_int(n_probes, "n_probes"), self.n_bins)
        ranked = self.top_bins(queries, n_probes)
        return self._bin_major_layout().scan(queries, ranked, int(k))

    def _bin_major_layout(self) -> _BinMajorLayout:
        """The bin-major rows for the current metric, built on first use.

        A pure function of the built state, so concurrent first calls at
        worst build it twice; nothing of it is persisted.
        """
        layout = self._layout
        if layout is None or layout.metric != self.metric:
            layout = self._layout = _BinMajorLayout(self._base, self._lookup, self.metric)
        return layout

    # ------------------------------------------------------------------ #
    # persistence (repro.api.persistence hooks)
    # ------------------------------------------------------------------ #
    def _extra_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Subclass hook: (JSON-able config, numpy arrays) beyond the shared state."""
        return {}, {}

    @classmethod
    def _restore(
        cls,
        config: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        load_child: Callable[[str], Any],
    ) -> "PartitionIndexBase":
        """Subclass hook: rebuild an *unbuilt* instance from the extra state."""
        raise NotImplementedError(f"{cls.__name__} does not implement _restore")

    def _state(self):
        self._require_built()
        config, arrays = self._extra_state()
        config = dict(config)
        arrays = dict(arrays)
        config["__n_bins__"] = int(self._n_bins)
        config["__metric__"] = self.metric
        arrays["__base__"] = self._base
        arrays["__assignments__"] = self._assignments
        return config, arrays, {}

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        index = cls._restore(config, arrays, load_child)
        index._finalize_build(
            arrays["__base__"], arrays["__assignments__"], int(config["__n_bins__"])
        )
        index.metric = str(config["__metric__"])
        return index
