"""Request/response objects for the query-serving layer.

A :class:`QueryRequest` replaces the positional ``(k, n_probes)`` knobs
that callers used to thread through ``batch_query`` by hand.  The request
is back-end agnostic: ``probes`` is translated into the index's own probe
keyword (``n_probes`` for partition/IVF methods, ``ef`` for HNSW, nothing
for exact brute force) through the :class:`repro.api.IndexCapabilities`
descriptor attached to every registered class.

Results come back as :class:`QueryResult` (one query) or
:class:`BatchResult` (a query matrix), both carrying the ids/distances
*and* the serving metadata — elapsed time, cache hits, recall — so
throughput numbers reported by benchmarks are produced by the same
instrumented path applications would serve from.

:class:`Service` declares the surface those objects travel through: what
a :class:`~repro.service.Router`, a tenant registry or the HTTP server
needs from anything it hosts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Protocol, runtime_checkable

import numpy as np

from ..filter.predicate import Predicate, predicate_from_dict
from ..utils.exceptions import ValidationError

if TYPE_CHECKING:
    from ..api.protocol import IndexCapabilities
    from ..store.collection import Collection


def _freeze(value: Any) -> Any:
    """Hashable identity of an ``extra`` value, exact for array contents.

    ``repr`` would truncate large numpy arrays (two arrays differing only in
    the elided middle share a repr), so arrays are keyed by dtype + shape +
    raw bytes instead.
    """
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return ("ndarray", contiguous.dtype.str, contiguous.shape, contiguous.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return repr(value)


@dataclass(frozen=True, eq=False)
class QueryRequest:
    """One nearest-neighbour request.

    Parameters
    ----------
    k:
        Number of neighbours to return.
    probes:
        Accuracy/cost knob, translated to the index's own probe keyword
        (``n_probes``, ``ef``, ...).  ``None`` uses the index default.
    candidate_budget:
        Upper bound on the average candidate-set size the caller is
        willing to scan.  When ``probes`` is not given, the service plans
        a probe count that fits the budget (partition indexes only).
    filter:
        Per-query predicate restricting the result to matching ids: a
        :class:`repro.filter.Predicate` (evaluated against the index's
        attached attribute store), a boolean mask, or an id allowlist.
        Requires a ``filterable`` index; the predicate's canonical
        fingerprint is part of the result-cache key, so the same vector
        under different predicates can never share a cached answer.
    metadata:
        Free-form per-request annotations, echoed back on the result.
    extra:
        Additional keyword arguments forwarded verbatim to
        ``batch_query`` (escape hatch for back-end specific knobs).
    """

    k: int = 10
    probes: Optional[int] = None
    candidate_budget: Optional[int] = None
    filter: Optional[Any] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if int(self.k) < 1:
            raise ValidationError("QueryRequest.k must be positive")
        if self.probes is not None and int(self.probes) < 1:
            raise ValidationError("QueryRequest.probes must be positive")
        if self.candidate_budget is not None and int(self.candidate_budget) < 1:
            raise ValidationError("QueryRequest.candidate_budget must be positive")
        if self.filter is not None and not isinstance(self.filter, Predicate):
            if not isinstance(self.filter, (np.ndarray, list, tuple)):
                raise ValidationError(
                    "QueryRequest.filter must be a Predicate, boolean mask, or "
                    f"id allowlist; got {type(self.filter).__name__}"
                )
            # Reject bad dtypes at construction: a float array would fail
            # at serve time but silently become an int allowlist through
            # as_dict/from_dict persistence.
            spec = np.asarray(self.filter)
            if spec.size == 0:
                spec = spec.astype(np.int64)  # empty allowlist: match nothing
            if spec.dtype != bool and not np.issubdtype(spec.dtype, np.integer):
                raise ValidationError(
                    "array filters must be a boolean mask or an integer id "
                    f"allowlist; got dtype {spec.dtype}"
                )
            # Snapshot the array into a read-only copy: the request is
            # frozen (its fingerprint is memoized and keys the result
            # cache), so a caller mutating the original mask in place
            # must not change — or desynchronise — this request.
            frozen = spec.copy()
            frozen.setflags(write=False)
            object.__setattr__(self, "filter", frozen)

    def filter_fingerprint(self) -> Any:
        """Canonical hashable identity of the filter (None when unfiltered).

        Mask/allowlist fingerprints digest the array (dtype + shape +
        SHA-256 of the bytes) instead of embedding the raw O(corpus)
        bytes, so result-cache keys stay constant-size; the request is
        frozen, so the digest is memoized for the per-query hot path.
        """
        if self.filter is None:
            return None
        if isinstance(self.filter, Predicate):
            return self.filter.fingerprint()
        cached = getattr(self, "_filter_fingerprint_cache", None)
        if cached is None:
            spec = np.ascontiguousarray(self.filter)
            digest = hashlib.sha256(spec.tobytes()).hexdigest()
            cached = ("ndarray-digest", spec.dtype.str, spec.shape, digest)
            object.__setattr__(self, "_filter_fingerprint_cache", cached)
        return cached

    def filter_fingerprint_digest(self) -> Optional[str]:
        """The filter fingerprint as a stable hex digest (wire/observability form).

        The raw fingerprint is a nested tuple built for hashing, not for
        JSON; the digest is what result payloads and traces carry so a
        client can tell two cached answers' predicates apart without
        shipping the predicate itself.
        """
        fingerprint = self.filter_fingerprint()
        if fingerprint is None:
            return None
        return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()

    # The dataclass-generated __eq__ would compare fields directly, which
    # is ambiguous for numpy mask/allowlist filters (and for array-valued
    # metadata); compare (and hash) the canonical cache identity plus the
    # frozen metadata instead.
    def _metadata_key(self) -> tuple:
        return tuple(
            sorted((str(key), _freeze(value)) for key, value in self.metadata.items())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryRequest):
            return NotImplemented
        return (
            self.cache_key() == other.cache_key()
            and self._metadata_key() == other._metadata_key()
        )

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def with_updates(self, **changes) -> "QueryRequest":
        """A copy of this request with some fields replaced."""
        return replace(self, **changes)

    def cache_key(self) -> tuple:
        """Hashable identity of the *answer* this request produces."""
        return (
            int(self.k),
            None if self.probes is None else int(self.probes),
            None if self.candidate_budget is None else int(self.candidate_budget),
            self.filter_fingerprint(),
            tuple(
                sorted((str(key), _freeze(value)) for key, value in self.extra.items())
            ),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (used by router deployment save/restore)."""
        if self.filter is None:
            filter_data = None
        elif isinstance(self.filter, Predicate):
            filter_data = {"predicate": self.filter.as_dict()}
        else:
            spec = np.asarray(self.filter)
            key = "mask" if spec.dtype == bool else "ids"
            filter_data = {key: spec.reshape(-1).tolist()}
        return {
            "k": int(self.k),
            "probes": None if self.probes is None else int(self.probes),
            "candidate_budget": (
                None if self.candidate_budget is None else int(self.candidate_budget)
            ),
            "filter": filter_data,
            "metadata": dict(self.metadata),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryRequest":
        filter_data = data.get("filter")
        if filter_data is None:
            filter_spec = None
        elif "predicate" in filter_data:
            filter_spec = predicate_from_dict(filter_data["predicate"])
        elif "mask" in filter_data:
            filter_spec = np.asarray(filter_data["mask"], dtype=bool)
        elif "ids" in filter_data:
            filter_spec = np.asarray(filter_data["ids"], dtype=np.int64)
        else:
            # An unrecognized payload must fail loudly: falling back to an
            # empty allowlist would silently serve all-(-1) results.
            raise ValidationError(
                f"unknown filter payload keys {sorted(filter_data)}; "
                "expected 'predicate', 'mask', or 'ids'"
            )
        return cls(
            k=int(data.get("k", 10)),
            probes=data.get("probes"),
            candidate_budget=data.get("candidate_budget"),
            filter=filter_spec,
            metadata=dict(data.get("metadata", {})),
            extra=dict(data.get("extra", {})),
        )


@dataclass
class QueryResult:
    """Answer to a single :class:`QueryRequest`."""

    ids: np.ndarray
    distances: np.ndarray
    request: QueryRequest
    latency_seconds: float = 0.0
    cached: bool = False

    @property
    def k(self) -> int:
        return int(self.ids.shape[-1])

    def as_dict(self) -> Dict[str, Any]:
        """Complete JSON-able form — the wire layer ships this verbatim."""
        return {
            "ids": np.asarray(self.ids, dtype=np.int64).tolist(),
            "distances": np.asarray(self.distances, dtype=np.float64).tolist(),
            "k": self.k,
            "latency_seconds": float(self.latency_seconds),
            "cached": bool(self.cached),
            "request": self.request.as_dict(),
            "filter_fingerprint": self.request.filter_fingerprint_digest(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResult":
        return cls(
            ids=np.asarray(data["ids"], dtype=np.int64),
            distances=np.asarray(data["distances"], dtype=np.float64),
            request=QueryRequest.from_dict(data.get("request", {})),
            latency_seconds=float(data.get("latency_seconds", 0.0)),
            cached=bool(data.get("cached", False)),
        )


@dataclass
class BatchResult:
    """Answer to a batched request: stacked ids/distances plus serving stats."""

    ids: np.ndarray
    distances: np.ndarray
    request: QueryRequest
    elapsed_seconds: float
    cache_hits: int = 0
    recall: Optional[float] = None

    @property
    def n_queries(self) -> int:
        return int(self.ids.shape[0])

    @property
    def queries_per_second(self) -> float:
        return self.n_queries / max(self.elapsed_seconds, 1e-9)

    def __iter__(self) -> Iterator[QueryResult]:
        """Per-query views (latency is the batch average)."""
        per_query = self.elapsed_seconds / max(self.n_queries, 1)
        for row in range(self.n_queries):
            yield QueryResult(
                ids=self.ids[row],
                distances=self.distances[row],
                request=self.request,
                latency_seconds=per_query,
            )

    def as_dict(self) -> Dict[str, Any]:
        """Complete JSON-able form — the wire layer ships this verbatim.

        ``per_query_latency_seconds`` carries what :meth:`__iter__`
        reports for each row (today the batch average), so clients
        consuming the wire form and callers iterating in process see the
        same per-query numbers.
        """
        per_query = self.elapsed_seconds / max(self.n_queries, 1)
        return {
            "ids": np.asarray(self.ids, dtype=np.int64).tolist(),
            "distances": np.asarray(self.distances, dtype=np.float64).tolist(),
            "n_queries": self.n_queries,
            "elapsed_seconds": float(self.elapsed_seconds),
            "per_query_latency_seconds": [per_query] * self.n_queries,
            "queries_per_second": float(self.queries_per_second),
            "cache_hits": int(self.cache_hits),
            "recall": None if self.recall is None else float(self.recall),
            "request": self.request.as_dict(),
            "filter_fingerprint": self.request.filter_fingerprint_digest(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchResult":
        request = QueryRequest.from_dict(data.get("request", {}))
        ids = np.asarray(data["ids"], dtype=np.int64)
        width = ids.shape[1] if ids.ndim == 2 else int(data.get("k", request.k))
        recall = data.get("recall")
        return cls(
            ids=ids.reshape(-1, width) if ids.size else ids.reshape(0, width),
            distances=np.asarray(data["distances"], dtype=np.float64).reshape(
                ids.shape if ids.size else (0, width)
            ),
            request=request,
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            cache_hits=int(data.get("cache_hits", 0)),
            recall=None if recall is None else float(recall),
        )


@runtime_checkable
class Service(Protocol):
    """What a host needs from a serving target.

    :class:`~repro.service.SearchService`,
    :class:`~repro.tenant.TenantGateway` and
    :class:`~repro.replica.ReplicaGroup` subclass it; the router, the
    tenant registry and the HTTP server check ``isinstance(target,
    Service)`` before hosting one and then read its members directly:

    * ``name`` — how the target is addressed and reported;
    * ``collection`` — the durable :class:`~repro.store.Collection`
      behind it (checkpointed on drain), or ``None``;
    * ``capabilities`` — the served index's
      :class:`~repro.api.IndexCapabilities` (capability routing);
    * ``dim`` — the query dimension, ``None`` when unknown;
    * ``batch_size`` — the rows one ``search_batch`` call should carry
      (the HTTP layer checks deadlines between such chunks).

    Implementers write :meth:`search_batch` and :meth:`resolve_request`;
    :meth:`search` is defined here once, as its one-row case, and
    :meth:`cache_tag` defaults to no freshness tag.
    """

    name: str
    collection: Optional[Collection]
    capabilities: IndexCapabilities
    dim: Optional[int]
    batch_size: int

    def search(
        self, query: np.ndarray, request: Optional[QueryRequest] = None, **kwargs
    ) -> QueryResult:
        """Answer one query vector: row 0 of a one-row :meth:`search_batch`
        (``kwargs`` are its keywords: overrides, ``session``, ``name``...)."""
        row = np.asarray(query)
        if row.ndim == 1:
            row = row[None]
        if row.ndim != 2 or row.shape[0] != 1:
            raise ValidationError("search() takes a single query; use search_batch()")
        batch = self.search_batch(row, request, **kwargs)
        return QueryResult(
            ids=batch.ids[0],
            distances=batch.distances[0],
            request=batch.request,
            latency_seconds=batch.elapsed_seconds,
            cached=batch.cache_hits == 1,
        )

    def search_batch(
        self,
        queries: np.ndarray,
        request: Optional[QueryRequest] = None,
        *,
        ground_truth: Optional[np.ndarray] = None,
        **overrides,
    ) -> BatchResult: ...

    def resolve_request(
        self, request: Optional[QueryRequest] = None, **overrides
    ) -> QueryRequest:
        """``request`` (or the target's default one) with ``overrides`` applied."""

    def cache_tag(self) -> Optional[tuple]:
        """Identity of the data a cached answer was computed from.

        ``None`` means the target cannot vouch that a cached answer is
        still fresh, so callers must not cache in front of it.
        """
        return None

    def stats(self) -> Dict[str, Any]: ...

    def service_config(self) -> Dict[str, Any]: ...
