"""The :class:`AnnIndex` protocol and the capabilities descriptor.

Every index in this repository — the USP partitioner, the learned and
classical baselines, and the full ANN pipelines — follows the same
structural contract: ``build(base)`` runs the offline phase and returns
``self``; ``batch_query`` answers nearest-neighbour requests (``query``
is its one-row case); ``stats()`` reports introspection data.
:class:`IndexCapabilities` describes the per-class differences
(supported metrics, the name of the probe knob, whether the method
learns parameters) so harnesses can drive any registered index without
special-casing.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from .persistence import PersistentIndexMixin


#: capability values that already warned about a dropped ``probes`` knob
#: (the warning fires once per distinct capabilities value, not per query).
_PROBE_WARNINGS: set = set()


@dataclass(frozen=True)
class IndexCapabilities:
    """What a registered index can do and how to drive it.

    Parameters
    ----------
    metrics:
        Distance metrics the index supports for re-ranking.
    probe_parameter:
        Name of the keyword controlling the accuracy/cost trade-off at
        query time: ``"n_probes"`` for partition/IVF methods, ``"ef"`` for
        HNSW, ``None`` when there is no knob (exact brute force).  Asking
        :meth:`query_kwargs` for probes on a knobless index is *not*
        silently dropped: it warns once per capabilities value so callers
        learn their accuracy/cost dial is a no-op on that back-end.
    routed:
        True when the index has ``route(queries, n_probes)``: its answers
        are scans of ranked bins (every space-partitioning method and the
        ensembles).  The sweep harness reads |C| from the routed bins, and
        the filter planner scans them restricted to the allowed rows.
    trainable:
        True when the offline phase learns parameters from the data
        (models, centroids, hyperplanes) rather than drawing them blindly.
    reports_parameter_count:
        True when ``num_parameters()`` returns the Table-2 style count of
        stored/learned parameters.
    exact:
        True when query results are exact rather than approximate.
    shardable:
        True when the offline phase is self-contained over any subset of
        the data, so the index can serve as a shard of a
        :class:`repro.shard.ShardedIndex` without global coordination.
    mutable:
        True when the index supports post-build ``add`` / ``remove`` /
        ``compact`` (the :class:`MutableIndex` capability).
    filterable:
        True when ``query`` / ``batch_query`` accept ``filter=`` — a
        :class:`repro.filter.Predicate` (against the attribute store
        attached with ``set_attributes``), a boolean mask, or an id
        allowlist — and return only ids satisfying it.
    quantized:
        True when the scan stage reads compressed codes instead of raw
        vectors (the :mod:`repro.quant` backends); such indexes expose a
        ``rerank`` query keyword as their accuracy/cost knob.
    rerank:
        True when approximate scan results are exactly re-ranked against
        full-precision vectors before being returned — the returned
        distances are exact under the index's metric even though the
        candidate selection is approximate.
    """

    metrics: Tuple[str, ...] = ("euclidean",)
    probe_parameter: Optional[str] = "n_probes"
    routed: bool = False
    trainable: bool = False
    reports_parameter_count: bool = False
    exact: bool = False
    shardable: bool = False
    mutable: bool = False
    filterable: bool = False
    quantized: bool = False
    rerank: bool = False

    def supports_metric(self, metric: str) -> bool:
        return metric in self.metrics

    def query_kwargs(self, probes: Optional[int]) -> Dict[str, int]:
        """Translate a generic probe count into this index's query keyword.

        ``probes=4`` becomes ``{"n_probes": 4}`` for partition/IVF methods,
        ``{"ef": 4}`` for HNSW, and ``{}`` when the index has no knob
        (exact brute force) — which lets harnesses and the serving layer
        drive every back-end through one request shape.  Requesting probes
        from an index without a knob warns once (per capabilities value)
        instead of silently dropping the setting, so callers learn their
        accuracy/cost dial is a no-op on this back-end.
        """
        if probes is None:
            return {}
        if self.probe_parameter is None:
            if self not in _PROBE_WARNINGS:
                _PROBE_WARNINGS.add(self)
                warnings.warn(
                    "probes requested on an index with no probe parameter "
                    "(probe_parameter=None); the setting has no effect",
                    UserWarning,
                    stacklevel=3,
                )
            return {}
        return {self.probe_parameter: int(probes)}

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@runtime_checkable
class AnnIndex(Protocol):
    """Structural protocol shared by every registered index."""

    capabilities: ClassVar[IndexCapabilities]

    def build(self, base: np.ndarray, **kwargs) -> "AnnIndex":  # pragma: no cover
        ...

    def query(self, query: np.ndarray, k: int = 10, **kwargs):  # pragma: no cover
        ...

    def batch_query(self, queries: np.ndarray, k: int = 10, **kwargs):  # pragma: no cover
        ...

    def stats(self) -> Dict[str, Any]:  # pragma: no cover
        ...


@runtime_checkable
class MutableIndex(AnnIndex, Protocol):
    """An index that also supports post-build mutation.

    Mutable indexes additionally expose a monotonically increasing
    ``version`` counter bumped on every ``add`` / ``remove`` / ``compact``,
    which the serving layer folds into its result-cache keys so cached
    answers never outlive the data they were computed from.  The serving
    and storage layers read the remaining members directly: the
    ``n_pending`` / ``n_tombstones`` gauges and their ``mutation_pressure``
    ratio ``(pending + tombstoned) / live`` (when to compact),
    ``total_rows`` (the id the next ``add`` assigns, journaled with it)
    and :meth:`contains` (which ids a ``remove`` may name).
    """

    version: int
    n_pending: int
    n_tombstones: int
    total_rows: int
    mutation_pressure: float

    def add(self, vectors: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Insert vectors; returns the global ids assigned to them."""
        ...

    def remove(self, ids) -> int:  # pragma: no cover
        """Tombstone the given global ids; returns how many were removed."""
        ...

    def compact(self):  # pragma: no cover
        """Fold pending adds and tombstones into a rebuilt structure."""
        ...

    def contains(self, ids) -> np.ndarray:  # pragma: no cover
        """Boolean per id: assigned and not tombstoned (out of range: False)."""
        ...


def basic_index_stats(index) -> Dict[str, Any]:
    """Collect the introspection attributes an index actually exposes.

    Shared implementation behind every ``stats()`` method: attributes that
    are unavailable (or raise because the index is not built) are simply
    omitted, so the result is always safe to serialise and log.
    """
    stats: Dict[str, Any] = {"class": type(index).__name__}
    name = getattr(type(index), "_registry_name", None)
    if name:
        stats["name"] = name
    stats["is_built"] = bool(getattr(index, "is_built", False))
    for attr in (
        "n_points",
        "dim",
        "n_bins",
        "n_models",
        "n_trees",
        "n_shards",
        "n_pending",
        "n_tombstones",
        "version",
    ):
        try:
            value = getattr(index, attr)
        except Exception:
            continue
        if isinstance(value, (int, np.integer)):
            stats[attr] = int(value)
    for attr in ("build_seconds",):
        value = getattr(index, attr, None)
        if isinstance(value, (int, float)) and value:
            stats[attr] = float(value)
    for method in ("num_parameters", "training_seconds"):
        fn = getattr(index, method, None)
        if fn is None:
            continue
        try:
            stats[method] = fn()
        except Exception:
            pass
    stats["capabilities"] = type(index).capabilities.as_dict()
    return stats


class RegisteredIndex(PersistentIndexMixin):
    """Mixin inherited by every concrete index class.

    Provides the protocol's ``query()`` and ``stats()`` and ``save``/``load``
    persistence (via :class:`PersistentIndexMixin`).
    """

    #: populated by :func:`repro.api.registry.register_index`
    capabilities: ClassVar[IndexCapabilities] = IndexCapabilities()

    #: per-id metadata attached with :meth:`set_attributes` (class-level
    #: default so indexes built before the filter layer existed still work)
    _attributes = None

    def set_attributes(self, store) -> "RegisteredIndex":
        """Attach an :class:`repro.filter.AttributeStore` (or ``None`` to detach).

        Row ``i`` of the store describes the vector with id ``i``;
        predicates passed as ``filter=`` to ``query`` / ``batch_query``
        compile against it.  The store is persisted alongside the index by
        ``save`` / ``load_index``.
        """
        if store is not None:
            from ..filter.attributes import AttributeStore

            if not isinstance(store, AttributeStore):
                raise TypeError(
                    f"set_attributes takes an AttributeStore, got {type(store).__name__}"
                )
            # Fail at attach time where possible: a store shorter than an
            # *immutable* built index would silently exclude the tail ids
            # from every filtered result (mutable indexes may legally lag
            # behind until AttributeStore.extend catches up).
            if self.is_built and not self.capabilities.mutable:
                try:
                    rows = int(self.n_points)
                except Exception:
                    rows = None
                if rows is not None and store.n_rows != rows:
                    from ..utils.exceptions import ValidationError

                    raise ValidationError(
                        f"attribute store has {store.n_rows} rows but "
                        f"{type(self).__name__} indexes {rows} ids; the store "
                        "needs exactly one row per id"
                    )
        self._attributes = store
        return self

    @property
    def attributes(self):
        """The attached :class:`repro.filter.AttributeStore`, or ``None``."""
        return self._attributes

    def vectors(self, ids: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """The raw base rows ``ids`` (every row, in id order, for ``None``); ``None`` if not kept.

        The filter planner's prefilter reads the allowed rows through it.
        """
        return None

    def _filtered_batch_query(self, queries, k: int, filter, **query_kwargs):
        """Shared ``filter=`` dispatch for every backend's ``batch_query``.

        Resolves the filter (predicate / mask / allowlist) against this
        index and runs the :class:`repro.filter.FilterPlanner`'s chosen
        strategy, forwarding the backend's own query keywords
        (``n_probes``, ``ef``, ...).
        """
        from ..filter.planner import filtered_search

        return filtered_search(self, queries, k, filter, query_kwargs=query_kwargs)

    def query(
        self, query: np.ndarray, k: int = 10, **kwargs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row 0 of a one-row :meth:`batch_query` (same keywords, same defaults)."""
        indices, distances = self.batch_query(np.atleast_2d(query), k, **kwargs)
        return indices[0], distances[0]

    def stats(self) -> Dict[str, Any]:
        """Introspection data: size, timings, parameter counts, capabilities."""
        stats = basic_index_stats(self)
        if self._attributes is not None:
            stats["attributes"] = {
                "n_rows": self._attributes.n_rows,
                "columns": self._attributes.columns(),
            }
        return stats
