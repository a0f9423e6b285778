"""Filter planning: decide *where* a predicate is applied, then apply it.

In the spirit of in-database ML systems, filtering is planned inside the
index rather than bolted on after the fact.  Given a resolved boolean
mask, :class:`FilterPlanner` picks one of three strategies by estimated
selectivity and index capability:

* **prefilter** — selectivity is low: brute-force scan only the surviving
  subset (exact; cheaper than probing a structure that will discard most
  of what it finds);
* **inline** — the index is ``routed``: copy only its routed bins'
  allowed rows out of the bin-major layout and scan them, so disallowed
  rows never reach the distance kernel;
* **postfilter** — anything else (graph / codec indexes): over-fetch
  ``k' > k`` results, drop disallowed ids, and retry with a
  multiplicatively larger ``k'`` until every query has ``k`` survivors or
  the candidates are exhausted.

Every strategy returns only ids satisfying the mask — filtered results
are exact *with respect to the predicate* by construction; strategies
differ in cost and (for approximate indexes) in recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..utils.distances import DEFAULT_BLOCK_SIZE, pairwise_topk
from ..utils.exceptions import ValidationError
from ..utils.topk import pad
from .attributes import AttributeStore
from .predicate import Predicate

#: strategies :meth:`FilterPlanner.plan` can choose
FILTER_STRATEGIES = ("empty", "prefilter", "inline", "postfilter")


def resolve_filter(filter_spec: Any, index: Any, n_rows: int) -> Optional[np.ndarray]:
    """Compile a ``filter=`` argument into a boolean mask of length ``n_rows``.

    Accepted forms:

    * ``None`` — no filtering (returns ``None``);
    * a :class:`~repro.filter.Predicate` — evaluated against the index's
      attached :class:`~repro.filter.AttributeStore`
      (``index.set_attributes``); rows beyond the store (vectors added to
      a mutable index without metadata) match nothing;
    * a boolean numpy array of length ``n_rows`` — used as-is;
    * an integer array / sequence — an id allowlist.
    """
    if filter_spec is None:
        return None
    if isinstance(filter_spec, Predicate):
        store = index.attributes
        if not isinstance(store, AttributeStore):
            raise ValidationError(
                f"{type(index).__name__} has no attribute store; call "
                "index.set_attributes(store) before filtering by predicate"
            )
        if store.n_rows > n_rows:
            raise ValidationError(
                f"attribute store has {store.n_rows} rows, index has {n_rows}"
            )
        mask = filter_spec.cached_mask(store)
        if mask.shape[0] < n_rows:
            # Rows past the store only exist legitimately on mutable
            # indexes (vectors added before AttributeStore.extend caught
            # up); on an immutable index a short store is a caller bug
            # that would silently exclude the tail ids from every result.
            if not type(index).capabilities.mutable:
                raise ValidationError(
                    f"attribute store has {store.n_rows} rows but "
                    f"{type(index).__name__} has {n_rows}; rebuild the store "
                    "with one row per id"
                )
            mask = np.concatenate(
                [mask, np.zeros(n_rows - mask.shape[0], dtype=bool)]
            )
        return mask
    spec = np.asarray(filter_spec)
    if spec.size == 0:
        # An empty allowlist (user may see zero ids) matches nothing —
        # np.asarray([]) defaults to float64, so handle it before dtype
        # validation rejects a filter the caller never typed.
        return np.zeros(n_rows, dtype=bool)
    if spec.dtype == bool:
        mask = spec.reshape(-1)
        if mask.shape[0] != n_rows:
            raise ValidationError(
                f"boolean filter mask has {mask.shape[0]} entries, index has {n_rows}"
            )
        return mask
    if not np.issubdtype(spec.dtype, np.integer):
        raise ValidationError(
            "filter must be a Predicate, a boolean mask, or an integer id allowlist"
        )
    allowlist = spec.reshape(-1)
    if allowlist.min() < 0 or allowlist.max() >= n_rows:
        raise ValidationError(
            f"filter allowlist ids must be in [0, {n_rows})"
        )
    if n_rows > 2 and allowlist.shape[0] == n_rows and allowlist.max() <= 1:
        # A full-length array of 0s and 1s is almost certainly a boolean
        # mask that lost its dtype (e.g. through JSON); interpreting it
        # as the allowlist {0, 1} would silently return wrong neighbours.
        # (On a 1- or 2-point index every valid allowlist looks like
        # this, so the guard stands down and allowlist semantics win.)
        raise ValidationError(
            f"ambiguous integer filter: {n_rows} values all in {{0, 1}} — "
            "pass dtype=bool for a mask, or np.flatnonzero(mask) for an allowlist"
        )
    mask = np.zeros(n_rows, dtype=bool)
    mask[allowlist] = True
    return mask


def _index_vectors(index: Any) -> Optional[np.ndarray]:
    """The raw vector matrix an index stores, if it exposes one."""
    for attr in ("_base", "_data"):
        vectors = getattr(index, attr, None)
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            return vectors
    return None


def filter_row_count(index: Any) -> int:
    """Number of id rows a filter mask for ``index`` must cover.

    ``n_points`` for ordinary indexes; the full vector-store length
    (tombstoned rows included — ids are stable) for mutable composites
    like :class:`repro.shard.ShardedIndex`.
    """
    data = getattr(index, "_data", None)
    if isinstance(data, np.ndarray) and data.ndim == 2:
        return int(data.shape[0])
    return int(index.n_points)


def _index_metric(index: Any) -> str:
    metric = getattr(index, "metric", None)
    return str(metric) if metric else "euclidean"


@dataclass(frozen=True)
class FilterPlan:
    """One planning decision: strategy plus the numbers behind it."""

    strategy: str
    selectivity: float
    n_allowed: int
    initial_fetch: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "selectivity": self.selectivity,
            "n_allowed": self.n_allowed,
            "initial_fetch": self.initial_fetch,
        }


@dataclass(frozen=True)
class FilterPlanner:
    """Strategy selection knobs (a frozen value object; thread-safe).

    Parameters
    ----------
    prefilter_selectivity:
        At or below this surviving fraction the planner brute-forces the
        subset: scanning ``selectivity * n`` vectors exactly beats probing
        a structure that mostly returns disallowed ids.
    overfetch:
        Safety factor on the first post-filter fetch size
        (``k / selectivity`` candidates would be exactly enough *on
        average*; the factor absorbs skew).
    growth:
        Multiplier applied to the fetch size on each post-filter retry.
    """

    prefilter_selectivity: float = 0.05
    overfetch: float = 1.5
    growth: float = 2.0

    def plan(self, index: Any, mask: np.ndarray, k: int) -> FilterPlan:
        """Choose a strategy for ``k``-NN under ``mask`` on ``index``."""
        n_rows = int(mask.shape[0])
        n_allowed = int(np.count_nonzero(mask))
        selectivity = n_allowed / max(n_rows, 1)
        if n_allowed == 0:
            return FilterPlan("empty", 0.0, 0)
        capabilities = type(index).capabilities
        has_vectors = _index_vectors(index) is not None
        # An exact index's query *is* a scan, so the subset scan is its
        # filtered query at every selectivity, not just low ones.
        if has_vectors and (capabilities.exact or selectivity <= self.prefilter_selectivity):
            return FilterPlan("prefilter", selectivity, n_allowed)
        if capabilities.routed:
            return FilterPlan("inline", selectivity, n_allowed)
        fetch = min(
            n_rows,
            max(2 * k, int(np.ceil(self.overfetch * k / max(selectivity, 1e-9)))),
        )
        return FilterPlan("postfilter", selectivity, n_allowed, initial_fetch=fetch)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def filtered_search(
        self,
        index: Any,
        queries: np.ndarray,
        k: int,
        mask: np.ndarray,
        query_kwargs: Optional[Dict[str, Any]] = None,
        strategy: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the planned strategy; every returned id satisfies ``mask``.

        ``query_kwargs`` are the index's own unfiltered query keywords
        (``n_probes``, ``ef``, ...), honoured by the inline and
        post-filter strategies.  ``strategy`` forces a specific strategy
        instead of planning one (exact scans force ``"prefilter"`` — the
        subset scan *is* their scan); an all-false mask short-circuits
        either way.  The result always has ``k`` columns; rows with fewer
        than ``k`` allowed neighbours are padded with ``-1`` / ``inf``,
        exactly like an unfiltered partition index with an underfull
        candidate set.
        """
        if strategy is not None:
            if strategy not in FILTER_STRATEGIES:
                raise ValidationError(
                    f"unknown filter strategy {strategy!r}; expected one of {FILTER_STRATEGIES}"
                )
            if strategy == "prefilter" and _index_vectors(index) is None:
                raise ValidationError(
                    f"cannot force 'prefilter' on {type(index).__name__}: "
                    "the index does not expose its raw vectors"
                )
            if strategy == "inline" and not type(index).capabilities.routed:
                raise ValidationError(
                    f"cannot force 'inline' on {type(index).__name__}: "
                    "the index has no bins to route queries to"
                )
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        kwargs = dict(query_kwargs or {})
        k = int(k)
        # Mutable indexes tombstone removed ids in an _alive mask while
        # keeping their rows in the vector store; fold it in so a direct
        # prefilter/inline scan can never resurrect a removed vector.
        alive = getattr(index, "_alive", None)
        if isinstance(alive, np.ndarray) and alive.shape == mask.shape:
            mask = mask & alive
        # Internally fetch at most n_rows candidates, but always hand the
        # caller k columns so filter= never changes the result shape.
        width = min(k, int(mask.shape[0]))
        if strategy is None and mask.all():
            # Nothing is excluded: the unfiltered fast path returns the
            # same answer without per-call subset copies (mirrors the
            # all-true shard short-circuit in ShardedIndex._scatter).
            # A *forced* strategy is still honoured — callers forcing
            # "prefilter" contract an exact scan at every selectivity.
            ids, distances = index.batch_query(queries, width, **kwargs)
            return pad(ids, distances, k)
        plan = self.plan(index, mask, width)
        chosen = plan.strategy if strategy is None else strategy
        if plan.strategy == "empty" or chosen == "empty":
            return (
                np.full((queries.shape[0], k), -1, dtype=np.int64),
                np.full((queries.shape[0], k), np.inf),
            )
        if chosen == "prefilter":
            ids, distances = self._prefilter(index, queries, width, mask)
        elif chosen == "inline":
            ids, distances = self._inline(index, queries, width, mask, kwargs)
        else:
            ids, distances = self._postfilter(index, queries, width, mask, kwargs, plan)
        return pad(ids, distances, k)

    def _prefilter(
        self, index: Any, queries: np.ndarray, k: int, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact scan of only the allowed rows, remapped to global ids."""
        vectors = _index_vectors(index)
        allowed = np.flatnonzero(mask)
        local_ids, distances = pairwise_topk(
            queries,
            vectors[allowed],
            min(k, allowed.shape[0]),
            metric=_index_metric(index),
            # honour the index's own memory bound when it configures one
            block_size=int(getattr(index, "block_size", 0) or DEFAULT_BLOCK_SIZE),
        )
        return pad(allowed[local_ids], distances, k)

    def _inline(
        self,
        index: Any,
        queries: np.ndarray,
        k: int,
        mask: np.ndarray,
        kwargs: Dict[str, Any],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan the routed bins with only the allowed rows in the layout."""
        from ..core.base import scan_routes  # local: core imports filter

        routes = index.route(queries, int(kwargs.get("n_probes", 1)))
        return scan_routes(routes, queries, k, allowed=mask)

    def _postfilter(
        self,
        index: Any,
        queries: np.ndarray,
        k: int,
        mask: np.ndarray,
        kwargs: Dict[str, Any],
        plan: FilterPlan,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Over-fetch, drop disallowed ids, retry multiplicatively.

        Each retry round re-queries only the rows still short of ``k``
        survivors.  A row is finalised (and dropped from the next round)
        as soon as it has enough, the fetch already covered every row, or
        its candidate pool is exhausted — the index returned fewer ids
        than asked (``-1`` padding, or a clipped result width), so a
        larger fetch under the same query kwargs cannot add candidates.
        """
        n_rows = int(mask.shape[0])
        out_ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
        out_distances = np.full((queries.shape[0], k), np.inf)
        remaining = np.arange(queries.shape[0])
        fetch = max(plan.initial_fetch, k)
        while remaining.size:
            ids, distances = index.batch_query(queries[remaining], fetch, **kwargs)
            valid = (ids >= 0) & mask[np.clip(ids, 0, n_rows - 1)]
            exhausted = (ids < 0).any(axis=1) | (ids.shape[1] < fetch)
            done = (valid.sum(axis=1) >= k) | (fetch >= n_rows) | exhausted
            for position in np.flatnonzero(done):
                row = remaining[position]
                keep = np.flatnonzero(valid[position])[:k]
                out_ids[row, : keep.shape[0]] = ids[position, keep]
                out_distances[row, : keep.shape[0]] = distances[position, keep]
            remaining = remaining[~done]
            fetch = min(n_rows, int(np.ceil(fetch * self.growth)))
        return out_ids, out_distances


#: shared default planner used by every backend's ``filter=`` path
DEFAULT_PLANNER = FilterPlanner()


def filtered_search(
    index: Any,
    queries: np.ndarray,
    k: int,
    filter_spec: Any,
    *,
    n_rows: Optional[int] = None,
    planner: Optional[FilterPlanner] = None,
    query_kwargs: Optional[Dict[str, Any]] = None,
    strategy: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve ``filter_spec`` against ``index`` and run the planned search.

    The one-call entry point backends use inside ``batch_query`` when a
    ``filter=`` argument is present.
    """
    if n_rows is None:
        n_rows = filter_row_count(index)
    mask = resolve_filter(filter_spec, index, n_rows)
    if mask is None:
        raise ValidationError("filtered_search needs a non-None filter")
    return (planner or DEFAULT_PLANNER).filtered_search(
        index, queries, k, mask, query_kwargs=query_kwargs, strategy=strategy
    )
