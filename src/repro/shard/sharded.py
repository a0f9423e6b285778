"""A sharded, mutable composite index behind the :class:`~repro.api.AnnIndex` protocol.

:class:`ShardedIndex` spreads one logical index over N child indexes
(any registered backend, mixed backends allowed):

* the offline phase partitions the base with a
  :class:`~repro.shard.partitioner.Partitioner` and builds every shard,
  one after the other;
* ``query`` / ``batch_query`` scan every shard in turn on the calling
  thread (BLAS already uses the cores inside each scan) and gather with an
  exact global top-k merge over the shard-local results (re-ranked
  distances, local ids remapped to global ids), so a sharded exact
  backend returns exactly what the unsharded backend would; *exactly*
  equidistant neighbours go to the smallest id, as in a single
  brute-force scan (:func:`~repro.utils.topk.merge`);
* the index is *mutable*: ``add`` appends vectors to an exactly-scanned
  pending buffer, ``remove`` tombstones ids, and ``compact`` folds both
  back into freshly rebuilt shards once they pass a threshold — the
  :class:`~repro.api.MutableIndex` capability.

Persistence writes a directory of shard artifacts (one PR 1 saved index
per shard) plus a manifest, so a sharded deployment survives restarts
like any other registered index, including through ``Router.save``.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities, RegisteredIndex
from ..obs.trace import span
from ..api.registry import get_spec, register_index
from ..utils.distances import pairwise_topk
from ..utils.exceptions import ConfigurationError, NotFittedError, ValidationError
from ..utils.topk import merge
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .partitioner import Partitioner, make_partitioner, partitioner_from_state

_SHARDED_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean", "sqeuclidean", "cosine"),
    probe_parameter="probes",
    trainable=False,
    exact=False,
    shardable=False,
    mutable=True,
    filterable=True,
)


def _instantiate_child(name: str, params: Mapping[str, Any], metric: str):
    """Construct one shard backend, threading the composite's metric through.

    The metric is passed as a constructor keyword when the backend's
    factory accepts one (brute force), or set as an attribute when the
    class re-ranks through a ``metric`` attribute (partition indexes).
    Backends that only support their own metric are left untouched —
    :meth:`ShardedIndex._validate_specs` already rejected incompatible
    combinations.
    """
    spec = get_spec(name)
    params = dict(params)
    if "metric" not in params and spec.capabilities.supports_metric(metric):
        try:
            accepts_metric = "metric" in inspect.signature(spec.factory).parameters
        except (TypeError, ValueError):
            accepts_metric = False
        if accepts_metric:
            params["metric"] = metric
    child = spec.factory(**{**spec.defaults, **params})
    if (
        "metric" not in params
        and hasattr(child, "metric")
        and spec.capabilities.supports_metric(metric)
    ):
        child.metric = metric
    return child


@register_index(
    "sharded",
    capabilities=_SHARDED_CAPABILITIES,
    description="Composite index: N child shards with scatter-gather top-k merge",
)
class ShardedIndex(RegisteredIndex):
    """One logical index served from ``n_shards`` child indexes.

    Parameters
    ----------
    n_shards:
        Number of child indexes.
    spec:
        Registry name of the backend to build in every shard, or a
        sequence of ``n_shards`` names for mixed-backend deployments.
    shard_params:
        Construction parameters for the shard factories: one mapping
        applied to every shard, or a sequence of ``n_shards`` mappings.
    partitioner:
        ``"round-robin"`` / ``"contiguous"`` / ``"kmeans"`` (or a
        :class:`~repro.shard.Partitioner` instance) assigning base
        vectors to shards and routing later additions.
    metric:
        Distance metric used by the pending-buffer scan and passed
        through to every shard that supports it.
    compact_threshold:
        Auto-compact when ``(pending + tombstoned) / live`` exceeds this
        fraction after a mutation; ``None`` disables auto-compaction
        (``compact()`` stays available).

    Notes
    -----
    Concurrency model: single writer, concurrent readers.  Queries may
    run from many threads (the serving layer does), and a mutation
    racing a query yields either the pre- or the post-mutation answer —
    never a torn one: the shard list and its local-to-global id tables
    swap as one atomic snapshot, vector storage grows before the pending
    buffer references it, and tombstones only ever flip ids dead.
    Concurrent *mutations* must be serialised by the caller.
    """

    def __init__(
        self,
        n_shards: int = 4,
        *,
        spec="bruteforce",
        shard_params=None,
        partitioner="round-robin",
        metric: str = "euclidean",
        compact_threshold: Optional[float] = 0.25,
    ) -> None:
        self.n_shards = check_positive_int(n_shards, "n_shards")
        self.metric = str(metric)
        if compact_threshold is not None and float(compact_threshold) <= 0:
            raise ConfigurationError("compact_threshold must be positive (or None)")
        self.compact_threshold = (
            None if compact_threshold is None else float(compact_threshold)
        )
        self.partitioner: Partitioner = make_partitioner(partitioner)
        self._specs = self._normalize_specs(spec, shard_params)
        self._validate_specs()

        # Row r <-> global id r, forever.  The published views below are
        # logical prefixes of geometrically grown backing stores, so
        # streaming add() calls are amortised O(rows added), not O(n).
        self._data: Optional[np.ndarray] = None
        self._alive: Optional[np.ndarray] = None  # tombstones: alive mask per row
        self._assignments: Optional[np.ndarray] = None  # shard per row, -1 = pending
        self._data_store: Optional[np.ndarray] = None
        self._alive_store: Optional[np.ndarray] = None
        self._assign_store: Optional[np.ndarray] = None
        # (shards, shard_ids, pending) swapped as ONE tuple so concurrent
        # readers never see a new shard paired with an old local->global
        # id table, nor a compaction's pending buffer counted twice
        self._serve_state: Optional[
            Tuple[List[Any], List[np.ndarray], np.ndarray]
        ] = None
        # tombstoned ids still inside each shard's structure (per-shard
        # over-fetch bound; invariant: _assignments[id] >= 0 iff id is
        # inside a shard structure, so these recompute exactly on load)
        self._dead_per_shard = np.zeros(self.n_shards, dtype=np.int64)
        self.version = 0  # bumped on every add/remove/compact (cache keys)
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # configuration plumbing
    # ------------------------------------------------------------------ #
    def _normalize_specs(self, spec, shard_params) -> List[Tuple[str, Dict[str, Any]]]:
        if isinstance(spec, str):
            names = [spec] * self.n_shards
        else:
            names = [str(name) for name in spec]
            if len(names) != self.n_shards:
                raise ConfigurationError(
                    f"spec lists one backend per shard: got {len(names)} "
                    f"names for {self.n_shards} shards"
                )
        if shard_params is None:
            params: List[Dict[str, Any]] = [{} for _ in names]
        elif isinstance(shard_params, Mapping):
            params = [dict(shard_params) for _ in names]
        else:
            params = [dict(p) for p in shard_params]
            if len(params) != self.n_shards:
                raise ConfigurationError(
                    f"shard_params lists one mapping per shard: got {len(params)} "
                    f"for {self.n_shards} shards"
                )
        return list(zip(names, params))

    def _validate_specs(self) -> None:
        for name, params in self._specs:
            capabilities = get_spec(name).capabilities
            child_metric = params.get("metric", self.metric)
            if not capabilities.supports_metric(child_metric):
                raise ConfigurationError(
                    f"shard backend {name!r} does not support metric "
                    f"{child_metric!r} (supported: {capabilities.metrics})"
                )

    @property
    def shard_specs(self) -> List[Tuple[str, Dict[str, Any]]]:
        """(registry name, params) per shard, as configured."""
        return [(name, dict(params)) for name, params in self._specs]

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "ShardedIndex":
        """Partition ``base`` and build every shard."""
        start = time.perf_counter()
        data = as_float_matrix(base, name="base")
        labels = np.asarray(
            self.partitioner.partition(data, self.n_shards), dtype=np.int64
        )
        if labels.shape[0] != data.shape[0]:
            raise ValidationError("partitioner must label every base vector")
        self._adopt_stores(data, np.ones(data.shape[0], dtype=bool), labels)
        self._dead_per_shard = np.zeros(self.n_shards, dtype=np.int64)
        self._rebuild_shards(np.arange(data.shape[0], dtype=np.int64), labels)
        self.build_seconds = time.perf_counter() - start
        return self

    def _adopt_stores(
        self, data: np.ndarray, alive: np.ndarray, assignments: np.ndarray
    ) -> None:
        """Take full arrays as backing stores (capacity == logical length)."""
        self._data_store = self._data = data
        self._alive_store = self._alive = alive
        self._assign_store = self._assignments = assignments

    def _ensure_capacity(self, extra: int) -> None:
        """Grow the backing stores geometrically to hold ``extra`` more rows."""
        n = self._data.shape[0]
        needed = n + extra
        if needed <= self._data_store.shape[0]:
            return
        capacity = max(needed, 2 * self._data_store.shape[0])
        data = np.empty((capacity, self._data.shape[1]), dtype=np.float64)
        data[:n] = self._data
        alive = np.empty(capacity, dtype=bool)
        alive[:n] = self._alive
        assignments = np.empty(capacity, dtype=np.int64)
        assignments[:n] = self._assignments
        self._data_store, self._alive_store, self._assign_store = (
            data, alive, assignments,
        )

    def _rebuild_shards(self, ids: np.ndarray, labels: np.ndarray) -> None:
        """Build all shards over ``data[ids]`` grouped by ``labels``.

        Publishing the new shards also clears the pending buffer: both
        callers (``build`` and ``compact``) have just folded every
        pending vector into the shard structures.
        """
        shard_ids = [
            ids[labels == shard] for shard in range(self.n_shards)
        ]
        shards = [
            _instantiate_child(name, params, self.metric).build(self._data[members])
            if members.shape[0]
            else None
            for (name, params), members in zip(self._specs, shard_ids)
        ]
        self._serve_state = (shards, shard_ids, np.empty(0, dtype=np.int64))

    @property
    def _shards(self) -> Optional[List[Any]]:
        return self._serve_state[0] if self._serve_state is not None else None

    @property
    def _shard_ids(self) -> List[np.ndarray]:
        return self._serve_state[1] if self._serve_state is not None else []

    @property
    def _pending(self) -> np.ndarray:
        if self._serve_state is None:
            return np.empty(0, dtype=np.int64)
        return self._serve_state[2]

    # ------------------------------------------------------------------ #
    # protocol properties
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self._shards is not None

    def _require_built(self) -> None:
        if self._shards is None:
            raise NotFittedError("ShardedIndex has not been built yet")

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._data.shape[1])

    @property
    def n_points(self) -> int:
        """Number of *live* vectors (tombstoned ids excluded)."""
        self._require_built()
        return int(np.count_nonzero(self._alive))

    @property
    def n_pending(self) -> int:
        """Vectors added since the last build/compact (served exactly)."""
        return int(self._live_pending().shape[0])

    @property
    def n_tombstones(self) -> int:
        """Removed ids still shadowing the shard structures or pending buffer.

        Compaction folds these away (retired ids keep their rows in the
        vector store so global ids stay stable, but they stop costing
        anything at query time).
        """
        self._require_built()
        dead_pending = (
            int(np.count_nonzero(~self._alive[self._pending]))
            if self._pending.size
            else 0
        )
        return int(self._dead_per_shard.sum()) + dead_pending

    @property
    def total_rows(self) -> int:
        """Rows ever assigned (live + tombstoned): the next add starts here.

        The storage layer journals this alongside each ``add`` so WAL
        replay can verify the index assigns the exact ids it acknowledged
        before the crash.
        """
        self._require_built()
        return int(self._data.shape[0])

    def contains(self, ids) -> np.ndarray:
        """Boolean per id: assigned to this index and not tombstoned.

        Out-of-range ids are simply ``False`` (not an error), so callers
        — the storage layer validating a ``remove`` before journaling it
        — can vet arbitrary id lists in one vectorised call.
        """
        self._require_built()
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        valid = (ids >= 0) & (ids < self._alive.shape[0])
        result = np.zeros(ids.shape[0], dtype=bool)
        result[valid] = self._alive[ids[valid]]
        return result

    @property
    def mutation_pressure(self) -> float:
        """(pending + tombstoned) / live — the compaction-trigger gauge."""
        return (self.n_pending + self.n_tombstones) / max(self.n_points, 1)

    @property
    def n_bins(self) -> int:
        """Smallest child bin count: a probe value valid on every shard."""
        bins = [
            int(child.n_bins)
            for child in self._shards or []
            if child is not None and hasattr(child, "n_bins")
        ]
        if not bins:
            raise AttributeError("no shard exposes n_bins")
        return min(bins)

    def shard_sizes(self) -> np.ndarray:
        """Live vectors currently held inside each shard structure."""
        self._require_built()
        return np.array(
            [int(np.count_nonzero(self._alive[ids])) for ids in self._shard_ids],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------ #
    # scatter-gather querying
    # ------------------------------------------------------------------ #
    def _child_kwargs(self, child, probes: Optional[int]) -> Dict[str, int]:
        """Translate the composite ``probes`` knob for one shard backend.

        Shards without a probe parameter (exact scans) are skipped
        silently: the knob is meaningful for the composite as long as any
        shard honours it, so this is not the dropped-knob situation
        :meth:`IndexCapabilities.query_kwargs` warns about.
        """
        if probes is None:
            return {}
        capabilities = type(child).capabilities
        if capabilities.probe_parameter is None:
            return {}
        return capabilities.query_kwargs(probes)

    def _scatter(
        self,
        queries: np.ndarray,
        k: int,
        probes: Optional[int],
        shards: List[Any],
        shard_ids: List[np.ndarray],
        mask: Optional[np.ndarray] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Run ``batch_query`` on every non-empty shard, remapped to global ids.

        ``shards`` / ``shard_ids`` come from the caller's atomic
        serve-state snapshot, so local ids map through the table matching
        the shard that was queried.  Each shard over-fetches by
        the number of tombstones still inside *its own* structure: even
        if every dead id outranked the live ones, the shard still
        surfaces ``k`` live candidates.

        With a global boolean ``mask``, each shard receives its own
        shard-local slice (``mask[members]``) pushed down as the child's
        ``filter=`` — disallowed ids are dropped inside the shard, before
        the global merge, and shards with no surviving member are never
        queried at all.
        """
        dead_per_shard = self._dead_per_shard
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        for shard, (child, members) in enumerate(zip(shards, shard_ids)):
            if child is None or members.shape[0] == 0:
                continue
            local_mask = None
            if mask is not None:
                local_mask = mask[members]
                if not local_mask.any():
                    continue
                if local_mask.all():
                    # Every member survives: the unfiltered fast path
                    # returns identical results without planner overhead.
                    local_mask = None
            local_k = min(k + int(dead_per_shard[shard]), members.shape[0])
            kwargs = self._child_kwargs(child, probes)
            with span("shard.scan", shard=shard, rows=int(members.shape[0])):
                if local_mask is None:
                    local_ids, distances = child.batch_query(queries, local_k, **kwargs)
                elif type(child).capabilities.filterable:
                    local_ids, distances = child.batch_query(
                        queries, local_k, filter=local_mask, **kwargs
                    )
                else:
                    # A backend registered without filter support: apply the
                    # generic planner on its behalf so the merge stays exact.
                    from ..filter.planner import DEFAULT_PLANNER

                    local_ids, distances = DEFAULT_PLANNER.filtered_search(
                        child, queries, local_k, local_mask, query_kwargs=kwargs
                    )
            valid = local_ids >= 0
            global_ids = np.where(
                valid, members[np.clip(local_ids, 0, members.shape[0] - 1)], -1
            )
            parts.append((global_ids, distances))
        return parts

    def _pending_topk(
        self,
        queries: np.ndarray,
        k: int,
        pending: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Exact scan of the (snapshot's) pending buffer, tombstones dropped.

        A filter mask restricts the scan the same way it restricts the
        shards: pending vectors outside the mask (including vectors added
        after the attribute store was written) are skipped.
        """
        if pending.shape[0]:
            keep = self._alive[pending]
            if mask is not None:
                keep = keep & mask[pending]
            pending = pending[keep]
        if pending.shape[0] == 0:
            return None
        local_ids, distances = pairwise_topk(
            queries, self._data[pending], min(k, pending.shape[0]), metric=self.metric
        )
        return pending[local_ids], distances

    def _live_pending(self) -> np.ndarray:
        pending = self._pending
        if pending.shape[0] == 0:
            return pending
        return pending[self._alive[pending]]

    def _merge_topk(
        self,
        parts: List[Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact global top-k over per-shard results; tombstoned or padded entries never win."""
        if not parts:
            return np.full((n_queries, k), -1, dtype=np.int64), np.full((n_queries, k), np.inf)
        ids = np.hstack([part[0] for part in parts]).astype(np.int64, copy=False)
        distances = np.hstack([np.asarray(part[1], dtype=np.float64) for part in parts])
        invalid = (ids < 0) | ~self._alive[np.clip(ids, 0, self._alive.shape[0] - 1)]
        if invalid.any():
            ids = np.where(invalid, -1, ids)
            distances = np.where(invalid, np.inf, distances)
        return merge(ids, distances, k)

    def batch_query(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        probes: Optional[int] = None,
        filter=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter ``queries`` to every shard and gather an exact top-k merge.

        ``probes`` is the composite accuracy/cost knob: it is translated
        per shard through each child's own
        :class:`~repro.api.IndexCapabilities` (``n_probes``, ``ef``, or
        nothing for exact shards), so mixed-backend deployments are driven
        by one request shape.

        ``filter`` (predicate / boolean mask / id allowlist) is resolved
        to one global mask and pushed down as per-shard slices *before*
        the merge; the pending buffer honours it too, and tombstones stay
        excluded as always.  Ids added after the attribute store was
        written match no predicate until :meth:`repro.filter.AttributeStore.extend`
        catches the store up.
        """
        self._require_built()
        queries = as_query_matrix(np.atleast_2d(queries), self.dim)
        k = check_positive_int(k, "k")
        # One atomic snapshot: a concurrent compact() publishes its new
        # shards, id tables, and emptied pending buffer as a single
        # tuple, so this query sees each vector exactly once.
        shards, shard_ids, pending_ids = self._serve_state
        mask = None
        if filter is not None:
            from ..filter.planner import filter_row_count, resolve_filter

            mask = resolve_filter(filter, self, filter_row_count(self))
        parts = self._scatter(queries, k, probes, shards, shard_ids, mask)
        with span("shard.merge", parts=len(parts)):
            pending = self._pending_topk(queries, k, pending_ids, mask)
            if pending is not None:
                parts.append(pending)
            return self._merge_topk(parts, queries.shape[0], k)

    # ------------------------------------------------------------------ #
    # mutation: add / remove / compact
    # ------------------------------------------------------------------ #
    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Insert vectors; returns their newly assigned global ids.

        Additions are served immediately from an exactly-scanned pending
        buffer and folded into the shard structures at the next
        :meth:`compact` (automatic once the pending+tombstone fraction
        passes ``compact_threshold``).
        """
        self._require_built()
        vectors = as_float_matrix(vectors, name="vectors")
        if vectors.shape[1] != self.dim:
            raise ValidationError(
                f"added vectors have dim {vectors.shape[1]}, index has {self.dim}"
            )
        start = self._data.shape[0]
        count = vectors.shape[0]
        new_ids = np.arange(start, start + count, dtype=np.int64)
        # Write the new rows into the (grown) backing stores first, then
        # publish the longer views and finally the extended pending
        # buffer — a concurrent reader sees either the old or the new
        # state, never ids pointing past the storage it can reach.
        self._ensure_capacity(count)
        self._data_store[start : start + count] = vectors
        self._alive_store[start : start + count] = True
        self._assign_store[start : start + count] = -1
        self._data = self._data_store[: start + count]
        self._alive = self._alive_store[: start + count]
        self._assignments = self._assign_store[: start + count]
        shards, shard_ids, pending = self._serve_state
        self._serve_state = (shards, shard_ids, np.concatenate([pending, new_ids]))
        self.version += 1
        self._maybe_compact()
        return new_ids

    def remove(self, ids) -> int:
        """Tombstone the given global ids; queries stop returning them at once."""
        self._require_built()
        ids = np.unique(np.asarray(ids, dtype=np.int64).reshape(-1))
        if ids.size == 0:
            return 0
        if ids.min() < 0 or ids.max() >= self._alive.shape[0]:
            raise ValidationError(
                f"ids must be in [0, {self._alive.shape[0]}); got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        dead = ids[~self._alive[ids]]
        if dead.size:
            raise ValidationError(
                f"ids already removed: {dead[:8].tolist()}"
            )
        self._alive[ids] = False
        sharded = self._assignments[ids]
        sharded = sharded[sharded >= 0]
        if sharded.size:
            self._dead_per_shard += np.bincount(sharded, minlength=self.n_shards)
        self.version += 1
        self._maybe_compact()
        return int(ids.size)

    def _maybe_compact(self) -> None:
        if self.compact_threshold is None:
            return
        live = max(self.n_points, 1)
        churn = self.n_pending + self.n_tombstones
        if churn / live > self.compact_threshold:
            self.compact()

    def compact(self) -> "ShardedIndex":
        """Rebuild every shard over the live vectors, clearing the pending buffer.

        Pending vectors are routed to shards by the partitioner; global
        ids are stable across compaction, so cached result ids and saved
        ground truths stay meaningful.
        """
        self._require_built()
        pending = self._live_pending()
        if pending.shape[0]:
            self._assignments[pending] = self.partitioner.route(
                self._data[pending], self.n_shards, self.shard_sizes()
            )
        # Retire tombstoned rows: assignment >= 0 must keep meaning "this
        # id sits inside a shard structure", or a save/load after the
        # compaction would resurrect the tombstones it just folded away.
        self._assignments[~self._alive] = -1
        live = np.flatnonzero(self._alive)
        self._rebuild_shards(live, self._assignments[live])  # clears pending too
        self._dead_per_shard = np.zeros(self.n_shards, dtype=np.int64)
        self.version += 1
        return self

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Composite counters plus every shard's own ``stats()``."""
        stats = super().stats()
        if not self.is_built:
            return stats
        sizes = self.shard_sizes()
        stats.update(
            {
                "partitioner": self.partitioner.name,
                "pending": self.n_pending,
                "tombstones": self.n_tombstones,
                "mutation_pressure": self.mutation_pressure,
                "shard_sizes": sizes.tolist(),
                "shard_balance": (
                    float(sizes.min() / sizes.max()) if sizes.max() else 0.0
                ),
                "shards": [
                    child.stats()
                    if child is not None
                    else {"class": None, "is_built": False, "n_points": 0}
                    for child in self._shards
                ],
            }
        )
        return stats

    def __repr__(self) -> str:
        backends = sorted({name for name, _ in self._specs})
        return (
            f"ShardedIndex(n_shards={self.n_shards}, spec={'/'.join(backends)}, "
            f"partitioner={self.partitioner.name!r}, built={self.is_built})"
        )

    # ------------------------------------------------------------------ #
    # persistence: directory of shard artifacts + manifest
    # ------------------------------------------------------------------ #
    def _state(self):
        routing_config, routing_arrays = self.partitioner.state()
        config = {
            "n_shards": int(self.n_shards),
            "specs": [[name, params] for name, params in self._specs],
            "metric": self.metric,
            "compact_threshold": self.compact_threshold,
            "routing": routing_config,
            "version": int(self.version),
            "build_seconds": float(self.build_seconds),
            "built_shards": [
                shard
                for shard, child in enumerate(self._shards)
                if child is not None
            ],
        }
        arrays = {
            "data": self._data,
            "alive": self._alive.astype(np.uint8),
            "assignments": self._assignments,
            "pending": self._pending,
            **routing_arrays,
        }
        for shard, members in enumerate(self._shard_ids):
            arrays[f"shard_ids.{shard}"] = members
        children = {
            f"shard-{shard}": child
            for shard, child in enumerate(self._shards)
            if child is not None
        }
        return config, arrays, children

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        specs = [(str(name), dict(params)) for name, params in config["specs"]]
        # Manifests written by older versions also carry thread-pool
        # settings; they are ignored: answers never depended on them.
        index = cls(
            int(config["n_shards"]),
            spec=[name for name, _ in specs],
            shard_params=[params for _, params in specs],
            partitioner=partitioner_from_state(dict(config.get("routing", {})), arrays),
            metric=str(config.get("metric", "euclidean")),
            compact_threshold=config.get("compact_threshold"),
        )
        index._adopt_stores(
            np.asarray(arrays["data"], dtype=np.float64),
            np.asarray(arrays["alive"], dtype=bool),
            np.asarray(arrays["assignments"], dtype=np.int64),
        )
        built = set(int(shard) for shard in config.get("built_shards", []))
        index._serve_state = (
            [
                load_child(f"shard-{shard}") if shard in built else None
                for shard in range(index.n_shards)
            ],
            [
                np.asarray(arrays[f"shard_ids.{shard}"], dtype=np.int64)
                for shard in range(index.n_shards)
            ],
            np.asarray(arrays["pending"], dtype=np.int64),
        )
        dead_assignments = index._assignments[~index._alive]
        dead_assignments = dead_assignments[dead_assignments >= 0]
        index._dead_per_shard = np.bincount(
            dead_assignments, minlength=index.n_shards
        ).astype(np.int64)
        index.version = int(config.get("version", 0))
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index


def _register_config(name: str, description: str, **defaults) -> None:
    register_index(
        name,
        capabilities=_SHARDED_CAPABILITIES,
        description=description,
        defaults=defaults,
    )(ShardedIndex)


_register_config(
    "sharded-bruteforce",
    "Sharded exact scan: distributed gold standard (merge is provably exact)",
    spec="bruteforce",
)
_register_config(
    "sharded-sq8",
    "Sharded int8 scan: per-shard scalar-quantized codes with exact re-rank",
    spec="sq8",
)
